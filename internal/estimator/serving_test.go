package estimator

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/machine"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

// slowModel executes `iters` tiny hold events: long enough to outlive a
// short deadline, quick to stop once the engine is interrupted.
func slowModel(t *testing.T, iters int) *uml.Model {
	t.Helper()
	b := builder.New("slow")
	b.Function("F", nil, "0.001")
	d := b.Diagram("main") // first diagram added becomes the main one
	d.Initial()
	d.Loop("L", itoa(iters), "body")
	d.Final()
	d.Chain("initial", "L", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("W").Cost("F()")
	body.Final()
	body.Chain("initial", "W", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestEstimatePreCancelledContext(t *testing.T) {
	m := slowModel(t, 5_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := New().Estimate(Request{Model: m, Context: ctx, MaxSteps: 100_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("pre-cancelled Estimate took %v, want immediate return", d)
	}
}

func TestEstimateShortDeadlineReturnsPromptly(t *testing.T) {
	m := slowModel(t, 20_000_000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New().Estimate(Request{Model: m, Context: ctx, MaxSteps: 100_000_000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline took %v to surface", d)
	}
	// No goroutine leak: the simulation processes and the context watcher
	// must all unwind once the run is interrupted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A library batch call without a record compiles the model as it is
// now, so mutating the model between two calls changes the next result.
func TestCompileCachedDetectsMutation(t *testing.T) {
	e := New()
	m := samples.Sample()
	req := Request{Model: m, Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 4, Threads: 1}}
	base, err := e.MonteCarlo(req, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate an action cost in place.
	var mutated bool
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if a, ok := n.(*uml.ActionNode); ok && a.CostFunc() == "FSA1()" {
				a.SetCostFunc("FA2()") // 5.0 → 3*P = 12: makespan must shift
				mutated = true
				break
			}
		}
		if mutated {
			break
		}
	}
	if !mutated {
		t.Fatal("sample model has no action with a cost function to mutate")
	}

	changed, err := e.MonteCarlo(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	if changed.Mean == base.Mean {
		t.Errorf("makespan unchanged (%g) after cost mutation: stale program served", base.Mean)
	}
	if hits, misses := e.CacheStats(); hits != 0 || misses != 2 {
		t.Errorf("two record-less batch calls: hits=%d misses=%d, want 0 and 2", hits, misses)
	}
}

// Batch calls that pass one record share its program. The record, not
// the content, is the program's identity: a second record of the same
// content prepares its own.
func TestCompileCachedSameContentSharesProgram(t *testing.T) {
	e := New()
	c := NewRecord(samples.Sample())
	req := Request{Compiled: c, Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 4, Threads: 1}}
	if _, err := e.MonteCarlo(req, 2); err != nil {
		t.Fatal(err)
	}
	prog := c.prog
	if _, err := e.SweepProcesses(req, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if prog == nil || c.prog != prog {
		t.Error("two batch calls on one record compiled it twice")
	}
	d := NewRecord(samples.Sample())
	if err := e.Prepare(d); err != nil {
		t.Fatal(err)
	}
	if d.prog == prog {
		t.Error("a second record shares the first record's program")
	}
}
