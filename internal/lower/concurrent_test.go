package lower

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/modelgen"
	"prophet/internal/sim"
)

// cancelAfter is an observer that cancels its run's context at the
// engine's n-th lifecycle event, so the interrupt lands mid-run.
type cancelAfter struct {
	n      int64
	cancel context.CancelCauseFunc
	cause  error
}

func (c *cancelAfter) Event(float64, *sim.Process, string) {
	if c.n--; c.n == 0 {
		c.cancel(c.cause)
	}
}

func (c *cancelAfter) Sample(sim.Sample) {}

// TestConcurrentEngines runs fork-heavy engine-mode models on 8
// goroutines at once, as prophetd's handlers do. One goroutine first
// makes a long run that its context interrupts mid-run. Every other run
// must be bit-identical to the same run made alone, and no process
// coroutine may outlive the runs.
func TestConcurrentEngines(t *testing.T) {
	const workers, rounds = 8, 3
	type job struct {
		lp   *Program
		cfg  interp.Config
		want *interp.Result
	}
	var jobs []job
	for seed := int64(1); seed <= workers; seed++ {
		m, err := modelgen.Generate(modelgen.Params{Seed: seed, Nodes: 1500})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := interp.Compile(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		lp := Lower(pr)
		cfg := interp.Config{Seed: seed, NoTrace: seed%2 == 0}
		if lp.direct(cfg, machine.DefaultParams()) {
			continue
		}
		want, err := lp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{lp, cfg, want})
	}
	if len(jobs) < workers/2 {
		t.Fatalf("only %d of %d models run on the engine", len(jobs), workers)
	}

	pr, err := interp.Compile(forkLoopModel(1<<30, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	long := Lower(pr)
	cause := errors.New("stop the long run")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var longErr error
	var mismatches atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 0 {
				_, longErr = long.Run(interp.Config{
					Context: ctx, Seed: 1, NoTrace: true, MaxSteps: math.MaxInt,
					Observer: &cancelAfter{n: 20_000, cancel: cancel, cause: cause},
				})
			}
			for r := 0; r < rounds; r++ {
				j := jobs[(w+r)%len(jobs)]
				got, err := j.lp.Run(j.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameResult(got, j.want) {
					mismatches.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := mismatches.Load(); n > 0 {
		t.Errorf("%d concurrent runs differ from the same run made alone", n)
	}
	var ie *sim.InterruptError
	if !errors.As(longErr, &ie) || !errors.Is(longErr, cause) {
		t.Errorf("long run: want an interrupt by the context's cause, got %v", longErr)
	}
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines outlive the runs (baseline %d)", n-base, base)
	}
}

// sameResult compares two runs bit for bit, leaving out the engine that
// made them.
func sameResult(a, b *interp.Result) bool {
	if math.Float64bits(a.Makespan) != math.Float64bits(b.Makespan) {
		return false
	}
	if len(a.CPUUtilization) != len(b.CPUUtilization) {
		return false
	}
	for i := range a.CPUUtilization {
		if math.Float64bits(a.CPUUtilization[i]) != math.Float64bits(b.CPUUtilization[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.Globals, b.Globals) &&
		reflect.DeepEqual(a.Trace, b.Trace) &&
		a.Stats.EventCounts() == b.Stats.EventCounts() &&
		reflect.DeepEqual(a.Stats.FacilityUtilization(), b.Stats.FacilityUtilization())
}
