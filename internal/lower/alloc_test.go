package lower

import (
	"fmt"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/modelgen"
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

// forkLoopModel runs rounds two-branch forks in a loop. Diagram "spare"
// is never executed; its vars loops only widen every frame's locals.
func forkLoopModel(rounds, vars int) *uml.Model {
	b := builder.New("fork-loop")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Rounds", fmt.Sprint(rounds), "round").Var("r")
	d.Final()
	d.Chain("initial", "Rounds", "final")
	round := b.Diagram("round")
	round.Initial()
	round.Fork("split")
	round.Action("A").Cost("1")
	round.Action("B").Cost("2")
	round.Join("meet")
	round.Final()
	round.Flow("initial", "split").
		Flow("split", "A").
		Flow("split", "B").
		Flow("A", "meet").
		Flow("B", "meet").
		Flow("meet", "final")
	spare := b.Diagram("spare")
	spare.Initial()
	chain := []string{"initial"}
	for i := 0; i < vars; i++ {
		name := fmt.Sprintf("Idle%d", i)
		spare.Loop(name, "0", "round").Var(fmt.Sprintf("v%d", i))
		chain = append(chain, name)
	}
	spare.Final()
	spare.Chain(append(chain, "final")...)
	return builder.MustBuild(b)
}

// A forked branch allocates at most its sim.Process: frames, join
// latches and process names are reused or built lazily, and a branch runs
// as a continuation, with no goroutine or coroutine behind it. So a run's
// allocations grow by at most one per executed branch and do not depend
// on how many locals a frame carries.
func TestForkAllocsPerBranch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	cfg := interp.Config{Seed: 3, NoTrace: true}
	allocs := func(rounds, vars int) float64 {
		pr, err := interp.Compile(forkLoopModel(rounds, vars), nil)
		if err != nil {
			t.Fatal(err)
		}
		lp := Lower(pr)
		if lp.direct(cfg, machine.DefaultParams()) {
			t.Fatal("fork loop runs in direct mode")
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := lp.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100, 10), allocs(1000, 10)
	if branches := 2.0 * (1000 - 100); large-small > branches {
		t.Errorf("allocs per run: %v at 100 rounds, %v at 1,000 rounds; want at most %v more (one per branch)",
			small, large, branches)
	}
	if wide := allocs(1000, 500); wide != large {
		t.Errorf("allocs per run at 1,000 rounds: %v with 10 spare locals, %v with 500; want equal", large, wide)
	}
}

// BenchmarkEngineForkModelgen2k is benchrunner's
// engine_fork_modelgen_2k_lowered: one untraced engine-mode run of a
// 2k-node modelgen model (seed 1) per op.
func BenchmarkEngineForkModelgen2k(b *testing.B) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 1, Nodes: 2000})
	if err != nil {
		b.Fatal(err)
	}
	pr, err := interp.Compile(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	lp := Lower(pr)
	cfg := interp.Config{Seed: 1, NoTrace: true}
	if lp.direct(cfg, machine.DefaultParams()) {
		b.Fatal("model runs in direct mode")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectJobLoop is one direct-mode run per op of the job loop
// with 2,000 jobs: 8,000 stochastic actions, the shape of a Monte Carlo
// run.
func BenchmarkDirectJobLoop(b *testing.B) {
	pr, err := interp.Compile(jobLoopModel(2000), nil)
	if err != nil {
		b.Fatal(err)
	}
	lp := Lower(pr)
	cfg := interp.Config{Globals: map[string]float64{"scale": 1}, Seed: 5, NoTrace: true}
	if !lp.direct(cfg, machine.DefaultParams()) {
		b.Fatal("job loop does not run in direct mode")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// spmdModel is a program every process runs: rounds of a compute action
// and a barrier.
func spmdModel() *uml.Model {
	b := builder.New("spmd")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("Rounds", "20", "round").Var("r")
	d.Final()
	d.Chain("initial", "Rounds", "final")
	round := b.Diagram("round")
	round.Initial()
	round.Action("Work").Cost("1 + pid")
	round.MPI("Sync", "mpi_barrier")
	round.Final()
	round.Chain("initial", "Work", "Sync", "final")
	return builder.MustBuild(b)
}

// An engine-mode run allocates per process only the process's records:
// its sim.Process, its frame with the frame's variable slices and
// environments, and its machine mailbox, about 15 objects. Control passes
// by function call, so no process pays for a coroutine (an iter.Pull
// worker is about 10 objects more).
func TestEngineAllocsPerProcess(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	const perProcess = 15
	pr, err := interp.Compile(spmdModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lp := Lower(pr)
	allocs := func(processes int) float64 {
		// A run limit keeps the one-process run in engine mode.
		cfg := interp.Config{Seed: 3, NoTrace: true, RunLimit: 1e9,
			Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 8, Processes: processes, Threads: 1}}
		if lp.direct(cfg, cfg.Params) {
			t.Fatal("run is in direct mode")
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := lp.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, eight := allocs(1), allocs(8)
	if eight-one > 7*perProcess {
		t.Errorf("allocs per run: %v with 1 process, %v with 8; want at most %d more (%d per process)",
			one, eight, 7*perProcess, perProcess)
	}
}
