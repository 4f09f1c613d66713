package lower_test

import (
	"runtime"
	"testing"

	"prophet/internal/conformance"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/modelgen"
	"prophet/internal/sim"
	"prophet/internal/uml"
)

// goroutineProbe is an observer that counts the goroutines alive at
// every lifecycle event and the processes it saw spawn.
type goroutineProbe struct {
	max, spawns int
}

func (g *goroutineProbe) Event(_ float64, _ *sim.Process, what string) {
	g.max = max(g.max, runtime.NumGoroutine())
	if what == "spawn" {
		g.spawns++
	}
}

func (g *goroutineProbe) Sample(sim.Sample) {}

// TestLoweredEngineRunsWithoutCoroutines: an engine-mode lowered run
// starts no goroutine. Its processes are continuations that the engine
// resumes by function call, so the goroutine count read mid-run equals
// the count before Run, for fork branches, OpenMP threads and MPI
// processes alike.
func TestLoweredEngineRunsWithoutCoroutines(t *testing.T) {
	fork, err := modelgen.Generate(modelgen.Params{Seed: 1, Nodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	type engineRun struct {
		name  string
		model *uml.Model
		cfg   interp.Config
	}
	cases := []engineRun{{"modelgen-fork-2k", fork, interp.Config{Seed: 1}}}
	for _, e := range conformance.Builtins() {
		switch e.Name {
		case "omp-region", "jacobi", "pipeline-4":
			cfg := interp.Config{Params: e.Config.Params, Globals: e.Config.Globals, Seed: e.Config.Seed}
			cases = append(cases, engineRun{e.Name, e.Model, cfg})
		}
	}
	if len(cases) != 4 {
		t.Fatalf("found %d of the 4 models", len(cases))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr, err := interp.Compile(c.model, nil)
			if err != nil {
				t.Fatal(err)
			}
			probe := &goroutineProbe{}
			c.cfg.Observer = probe
			lp := lower.Lower(pr)
			base := runtime.NumGoroutine()
			if _, err := lp.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
			if probe.spawns < 2 {
				t.Fatalf("%d processes spawned, want several", probe.spawns)
			}
			if probe.max != base {
				t.Errorf("%d goroutines mid-run, %d before Run", probe.max, base)
			}
		})
	}
}
