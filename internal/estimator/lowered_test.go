package estimator

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

// lowerWatch counts every lowering and how many of the lowered programs
// the garbage collector has since freed.
type lowerWatch struct{ built, freed atomic.Int64 }

func watchLowering(t *testing.T) *lowerWatch {
	w := &lowerWatch{}
	orig := lowerProgram
	lowerProgram = func(pr *interp.Program) *lower.Program {
		w.built.Add(1)
		lp := orig(pr)
		runtime.SetFinalizer(lp, func(*lower.Program) { w.freed.Add(1) })
		return lp
	}
	t.Cleanup(func() { lowerProgram = orig })
	return w
}

// waitFreed collects garbage until want lowered programs have been freed
// or a few seconds have passed, and returns how many were.
func (w *lowerWatch) waitFreed(want int64) int64 {
	for i := 0; i < 100 && w.freed.Load() < want; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	return w.freed.Load()
}

// tinyModel is a distinct one-action model per i.
func tinyModel(t *testing.T, i int) *uml.Model {
	b := builder.New(fmt.Sprintf("tiny%d", i))
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost(fmt.Sprint(i + 1))
	d.Final()
	d.Chain("initial", "A", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var kernel6Globals = map[string]float64{"N": 10, "M": 1, "c": 1}

// The lowered program lives with its record: every call that passes one
// record, concurrent ones included, shares one interp program and one
// lowered program, lowered once; a record its holder drops (as the model
// store drops an evicted one) frees its lowering; a batch call without a
// record keeps no lowering once it returns; and uncached estimates keep
// no lowering at all.
func TestLoweredProgramLivesWithCompileEntry(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		w := watchLowering(t)
		e := New()
		c := NewRecord(samples.Kernel6())
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.EstimateCompiledFast(c, Request{Globals: kernel6Globals}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		prog := c.prog
		if _, err := e.MonteCarlo(Request{Compiled: c, Globals: kernel6Globals}, 4); err != nil {
			t.Fatal(err)
		}
		if got := w.built.Load(); got != 1 {
			t.Errorf("lowered %d times, want once", got)
		}
		lp, built := c.lowered()
		if built || lp == nil || c.prog != prog {
			t.Error("calls on one record do not share one program and one lowering")
		}
	})

	t.Run("evicted", func(t *testing.T) {
		w := watchLowering(t)
		e := New()
		func() {
			c := NewRecord(samples.Kernel6())
			if _, err := e.EstimateCompiledFast(c, Request{Globals: kernel6Globals}); err != nil {
				t.Fatal(err)
			}
		}()
		if _, err := e.MonteCarlo(Request{Model: samples.Kernel6(), Globals: kernel6Globals}, 4); err != nil {
			t.Fatal(err)
		}
		if got := w.built.Load(); got != 2 {
			t.Fatalf("lowered %d times, want 2", got)
		}
		if got := w.waitFreed(2); got != 2 {
			t.Errorf("dropped records' lowered programs still reachable (freed %d of 2)", got)
		}
	})

	t.Run("uncached", func(t *testing.T) {
		w := watchLowering(t)
		e := New()
		const n = 8
		for i := 0; i < n; i++ {
			if _, err := e.Estimate(Request{Model: tinyModel(t, i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.built.Load(); got != n {
			t.Fatalf("lowered %d times, want %d", got, n)
		}
		if got := w.waitFreed(n); got != n {
			t.Errorf("uncached estimates retained %d of %d lowered programs", n-got, n)
		}
	})
}
