package estimator

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/samples"
)

// TestMonteCarloBitIdenticalAcrossWorkerCounts is the determinism
// guarantee of the batch runtime: the same model and seeds evaluated at
// -parallel 1, 4 and 16 must produce a bit-identical distribution
// summary. Equality here is exact float equality on purpose.
func TestMonteCarloBitIdenticalAcrossWorkerCounts(t *testing.T) {
	b := newWeightedBuilder(t)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := New()
	base, err := e.MonteCarlo(Request{Model: m, Parallel: 1}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if base.Std == 0 {
		t.Fatal("weighted model should have spread; the test needs a stochastic workload")
	}
	for _, workers := range []int{4, 16} {
		got, err := e.MonteCarlo(Request{Model: m, Parallel: workers}, 128)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if *got != *base {
			t.Errorf("parallel=%d: result %+v differs from sequential %+v", workers, *got, *base)
		}
	}
}

// TestSensitivityBitIdenticalAcrossWorkerCounts: every SensitivityPoint
// field must match exactly at any worker count.
func TestSensitivityBitIdenticalAcrossWorkerCounts(t *testing.T) {
	req := Request{
		Model:   samples.Kernel6(),
		Globals: map[string]float64{"N": 500, "M": 4, "c": 1e-9},
	}
	e := New()
	seq := req
	seq.Parallel = 1
	base, err := e.Sensitivity(seq, []string{"N", "M", "c", "ghost"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		r := req
		r.Parallel = workers
		got, err := e.Sensitivity(r, []string{"N", "M", "c", "ghost"}, 0.05)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		if len(got.Points) != len(base.Points) {
			t.Fatalf("parallel=%d: %d points, want %d", workers, len(got.Points), len(base.Points))
		}
		for i := range base.Points {
			if got.Points[i] != base.Points[i] {
				t.Errorf("parallel=%d: point %d = %+v, want %+v",
					workers, i, got.Points[i], base.Points[i])
			}
		}
		if len(got.Skipped) != 1 || got.Skipped[0] != base.Skipped[0] {
			t.Errorf("parallel=%d: skipped = %v, want %v", workers, got.Skipped, base.Skipped)
		}
	}
}

// TestSweepProcessesBitIdenticalAcrossWorkerCounts covers the sweep path
// (and, through it, CompareModels).
func TestSweepProcessesBitIdenticalAcrossWorkerCounts(t *testing.T) {
	req := Request{
		Model:   samples.Jacobi(),
		Globals: map[string]float64{"n": 256, "iters": 4, "flop": 2e-9},
	}
	counts := []int{1, 2, 4, 8}
	e := New()
	seq := req
	seq.Parallel = 1
	base, err := e.SweepProcesses(seq, counts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		r := req
		r.Parallel = workers
		got, err := e.SweepProcesses(r, counts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", workers, err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("parallel=%d: point %d = %+v, want %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestMonteCarloFailFast: a batch whose first job errors must return
// promptly with that error and leave no simulation goroutines behind.
func TestMonteCarloFailFast(t *testing.T) {
	// MaxSteps 1 makes every run fail immediately with a step-limit
	// error: Jacobi's iteration loop exceeds one element execution.
	req := Request{
		Model:    samples.Jacobi(),
		Globals:  map[string]float64{"n": 256, "iters": 8, "flop": 2e-9},
		MaxSteps: 1,
		Parallel: 4,
	}
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := New().MonteCarlo(req, 256)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("fail-fast batch took %v", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after failed batch", before, after)
	}
}

// TestMonteCarloContextCancellation: a cancelled request context aborts
// the batch with the context's error.
func TestMonteCarloCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{
		Model:    samples.Kernel6(),
		Globals:  map[string]float64{"N": 100, "M": 10, "c": 1e-9},
		Parallel: 4,
		Context:  ctx,
	}
	if _, err := New().MonteCarlo(req, 64); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
}

// TestCompileCachedReusesProgram: every entry point that passes one
// record checks and compiles its model once between them, not once per
// call; without a record, each call checks once for all of its runs.
func TestCompileCachedReusesProgram(t *testing.T) {
	var checks atomic.Int64
	defer SetCheckHook(func() { checks.Add(1) })()
	e := New()
	c := NewRecord(samples.Kernel6())
	req := Request{Compiled: c, Globals: map[string]float64{"N": 10, "M": 2, "c": 1e-6}}
	if _, err := e.MonteCarlo(req, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SweepProcesses(req, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SweepGlobal(req, "N", []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sensitivity(req, []string{"N"}, 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompareModels(c, c, req, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Estimate(req); err != nil {
		t.Fatal(err)
	}
	if got := checks.Load(); got != 1 {
		t.Errorf("one record checked %d times, want once", got)
	}
	if hits, misses := e.CacheStats(); hits != 6 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 6 and 1", hits, misses)
	}
	req.Compiled, req.Model = nil, samples.Kernel6()
	for i := 0; i < 2; i++ {
		if _, err := e.MonteCarlo(req, 4); err != nil {
			t.Fatal(err)
		}
	}
	if got := checks.Load(); got != 3 {
		t.Errorf("two record-less batch calls: %d checks in all, want 3", got)
	}
}
