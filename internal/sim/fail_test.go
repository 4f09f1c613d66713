package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A process aborting via Fail must surface as a typed *ProcessError that
// unwraps to the original error — errors.Is/As work through a failed run.
func TestProcessFailKeepsErrorChain(t *testing.T) {
	sentinel := errors.New("guard evaluation failed")
	e := New()
	e.Spawn("worker", func(p *Process) {
		p.Hold(1)
		p.Fail(errors.New("flow: " + sentinel.Error()))
	})
	e.Spawn("wrapped", func(p *Process) {
		p.Hold(2)
		p.Fail(sentinel)
	})
	_, err := e.Run()
	if err == nil {
		t.Fatal("failed process did not fail the run")
	}
	var pe *ProcessError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ProcessError, got %T: %v", err, err)
	}
	if pe.Process != "worker" {
		t.Errorf("failure attributed to %q, want the first failing process", pe.Process)
	}
	if strings.Contains(err.Error(), "panicked") {
		t.Errorf("cooperative failure reported as a panic: %v", err)
	}
}

func TestProcessFailUnwraps(t *testing.T) {
	sentinel := errors.New("inner cause")
	e := New()
	e.Spawn("p", func(p *Process) { p.Fail(sentinel) })
	_, err := e.Run()
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is lost the cause through the run: %v", err)
	}
}

func TestProcessFailNilError(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Process) { p.Fail(nil) })
	_, err := e.Run()
	var pe *ProcessError
	if !errors.As(err, &pe) || pe.Err == nil {
		t.Fatalf("Fail(nil) should still produce a ProcessError with a non-nil cause, got %v", err)
	}
}

// True panics must keep being reported as panics, not typed failures.
func TestTruePanicStillReportedAsPanic(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Process) { panic("boom") })
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("true panic not reported as panic: %v", err)
	}
	var pe *ProcessError
	if errors.As(err, &pe) {
		t.Errorf("true panic must not masquerade as a ProcessError: %v", err)
	}
}

// Interrupt stops the run between events and the cause survives the
// unwrap chain.
func TestInterruptStopsRun(t *testing.T) {
	cause := context.DeadlineExceeded
	e := New()
	e.Spawn("busy", func(p *Process) {
		for i := 0; i < 1_000_000; i++ {
			p.Hold(1)
		}
	})
	e.At(10, func() { e.Interrupt(cause) })
	now, err := e.Run()
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InterruptError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("interrupt cause lost: %v", err)
	}
	if now > 11 {
		t.Errorf("run kept going past the interrupt: t=%g", now)
	}
}

func TestInterruptBeforeRun(t *testing.T) {
	cause := errors.New("stop before start")
	e := New()
	ran := false
	e.Spawn("p", func(p *Process) { ran = true })
	e.Interrupt(cause)
	_, err := e.Run()
	if !errors.Is(err, cause) {
		t.Fatalf("pre-run interrupt ignored: %v", err)
	}
	if ran {
		t.Error("process ran despite pre-run interrupt")
	}
}

func TestInterruptKeepsFirstCause(t *testing.T) {
	first := errors.New("first")
	e := New()
	e.Spawn("p", func(p *Process) { p.Hold(1) })
	e.Interrupt(first)
	e.Interrupt(errors.New("second"))
	_, err := e.Run()
	if !errors.Is(err, first) {
		t.Fatalf("later Interrupt overwrote the first cause: %v", err)
	}
}

// RunUntil honors interrupts the same way Run does.
func TestInterruptStopsRunUntil(t *testing.T) {
	cause := errors.New("enough")
	e := New()
	e.Spawn("busy", func(p *Process) {
		for i := 0; i < 1000; i++ {
			p.Hold(1)
		}
	})
	e.At(5, func() { e.Interrupt(cause) })
	_, err := e.RunUntil(500)
	if !errors.Is(err, cause) {
		t.Fatalf("RunUntil ignored the interrupt: %v", err)
	}
}

// WatchContext interrupts a run with the context's cause when the context
// is done, and once stopped it leaves the engine alone: a watch stopped
// before the cancel, or on a context that is never done, interrupts
// nothing.
func TestWatchContext(t *testing.T) {
	cause := errors.New("client went away")
	ctx, cancel := context.WithCancelCause(context.Background())
	e := New()
	e.Spawn("busy", func(p *Process) {
		for i := 0; i < 1_000_000; i++ {
			p.Hold(1)
		}
	})
	stop := e.WatchContext(ctx)
	e.At(10, func() { cancel(cause) })
	_, err := e.Run()
	stop()
	if !errors.Is(err, cause) {
		t.Fatalf("cancel did not interrupt the run: %v", err)
	}

	ctx, cancel = context.WithCancelCause(context.Background())
	e = New()
	e.Spawn("p", func(p *Process) { p.Hold(1) })
	e.WatchContext(ctx)()
	cancel(cause)
	e.WatchContext(context.Background())()
	if _, err := e.Run(); err != nil {
		t.Fatalf("a stopped watch interrupted the run: %v", err)
	}
}
