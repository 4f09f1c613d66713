package lower

import (
	"fmt"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/uml"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// jobLoopModel is a single-process job loop whose job has the four
// stochastic actions of conformance.StochasticService: one draw from
// every distribution family per job.
func jobLoopModel(jobs int) *uml.Model {
	b := builder.New("job-loop")
	b.Global("scale", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Jobs", fmt.Sprint(jobs), "job").Var("j")
	d.Final()
	d.Chain("initial", "Jobs", "final")
	job := b.Diagram("job")
	job.Initial()
	job.Action("Fetch").Cost("exp(0.002*scale)")
	job.Action("Process").Cost("normal(0.005, 0.002)")
	job.Action("Write").Cost("uniform(0.001, 0.003)")
	job.Action("Rpc").Cost("empirical(0.001, 0.004, 0.01)")
	job.Final()
	job.Chain("initial", "Fetch", "Process", "Write", "Rpc", "final")
	return builder.MustBuild(b)
}

// Distribution draws do not allocate: a direct-mode run allocates the
// same amount whether its loop makes 800 draws or 8,000.
func TestDrawAllocsDoNotScaleWithJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cfg := interp.Config{Globals: map[string]float64{"scale": 1}, Seed: 5, NoTrace: true}
	allocs := func(jobs int) float64 {
		pr, err := interp.Compile(jobLoopModel(jobs), nil)
		if err != nil {
			t.Fatal(err)
		}
		lp := Lower(pr)
		if !lp.direct(cfg, machine.DefaultParams()) {
			t.Fatal("job loop does not run in direct mode")
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := lp.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(2000)
	if small != large {
		t.Errorf("allocs per run: %v at 200 jobs, %v at 2,000 jobs; want equal", small, large)
	}
}
