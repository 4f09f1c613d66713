package estimator

import (
	"context"
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
	"prophet/internal/xmi"
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

// The lowered program lives with its compile-cache entry: same-content
// hits share one interp program and one lowered program, lowered once
// even under concurrent callers; evicting the entry drops its lowering;
// uncached estimates keep no lowering at all.
func TestLoweredProgramLivesWithCompileEntry(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		w := watchLowering(t)
		e := New()
		c1, err := e.CompileCached(samples.Kernel6())
		if err != nil {
			t.Fatal(err)
		}
		// A distinct *uml.Model with identical content, by hash and by key.
		m := samples.Kernel6()
		key, err := xmi.Hash(m)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := e.CompileKeyedCtx(context.Background(), key, m)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 || c1.prog != c2.prog {
			t.Fatal("same-content hit returned a different compiled program")
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := e.CompileCached(samples.Kernel6())
				if err == nil {
					_, err = e.EstimateCompiledFast(c, Request{Globals: kernel6Globals})
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := w.built.Load(); got != 1 {
			t.Errorf("lowered %d times, want once", got)
		}
		lp1, built1 := c1.lowered()
		lp2, built2 := c2.lowered()
		if built1 || built2 || lp1 == nil || lp1 != lp2 {
			t.Error("cache hits do not share one lowered program")
		}
	})

	t.Run("evicted", func(t *testing.T) {
		w := watchLowering(t)
		e := New()
		func() {
			c, err := e.CompileCached(samples.Kernel6())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.EstimateCompiledFast(c, Request{Globals: kernel6Globals}); err != nil {
				t.Fatal(err)
			}
		}()
		// maxCachedPrograms newer entries push the first one out.
		for i := 0; i < maxCachedPrograms; i++ {
			if _, err := e.CompileCached(tinyModel(t, i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := w.waitFreed(1); got != 1 {
			t.Errorf("evicted entry's lowered program still reachable (freed %d of 1)", got)
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
