package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count is back at base or
// the deadline passes. A goroutine that has handed control back may need
// a moment to return, so the check yields instead of sleeping.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines outlive the run (baseline %d)", n-base, base)
	}
}

// TestNoGoroutineOutlivesRun ends a run in every way it can end and
// checks that no process goroutine, parked or idle, survives it.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	cases := []struct {
		name  string
		build func(e *Engine)
		run   func(e *Engine) error
	}{
		{"run", func(e *Engine) {
			for i := 0; i < 20; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(float64(i)) })
			}
		}, runToEnd},
		{"run-until-events-left", func(e *Engine) {
			mb := e.NewMailbox("mb")
			for i := 0; i < 10; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(float64(10 * i)) })
			}
			e.Spawn("rx", func(p *Process) { mb.Receive(p) })
			e.Spawn("late", func(p *Process) { p.Hold(30) })
		}, func(e *Engine) error {
			_, err := e.RunUntil(25)
			return err
		}},
		{"deadlock", func(e *Engine) {
			mb := e.NewMailbox("mb")
			for i := 0; i < 10; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { mb.Receive(p) })
			}
		}, wantErr[*DeadlockError]},
		{"interrupt", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) {
					for {
						p.Hold(1)
					}
				})
			}
			e.At(7, func() { e.Interrupt(errors.New("stop")) })
		}, wantErr[*InterruptError]},
		{"fail", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(10) })
			}
			e.Spawn("bad", func(p *Process) {
				p.Hold(1)
				p.Fail(errors.New("bad"))
			})
		}, wantErr[*ProcessError]},
		{"process-panic", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(10) })
			}
			e.Spawn("bad", func(p *Process) {
				p.Hold(1)
				panic("bad")
			})
		}, func(e *Engine) error {
			_, err := e.Run()
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				return fmt.Errorf("want a panicked error, got %v", err)
			}
			return nil
		}},
		{"callback-panic", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(10) })
			}
			e.At(1, func() { panic("bad") })
		}, func(e *Engine) (err error) {
			defer func() {
				if r := recover(); r != "bad" {
					err = fmt.Errorf("recovered %v, want the callback's panic", r)
				}
			}()
			e.Run()
			return errors.New("callback panic did not leave Run")
		}},
		// The same endings with continuation processes, whose errors read
		// as their coroutine twins' do.
		{"continuation-deadlock", func(e *Engine) {
			mb := e.NewMailbox("mb")
			for i := 0; i < 10; i++ {
				e.SpawnContinuation(&cont{name: fmt.Sprint(i), resume: func(p *Process) (bool, error) {
					_, wait := mb.BeginReceive(p)
					return wait, nil
				}})
			}
		}, wantText("sim: deadlock at t=0: blocked processes: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9")},
		{"continuation-interrupt", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.SpawnContinuation(&cont{name: fmt.Sprint(i), resume: func(p *Process) (bool, error) {
					p.BeginHold(1)
					return true, nil
				}})
			}
			e.At(7, func() { e.Interrupt(errors.New("stop")) })
		}, wantText("sim: run interrupted at t=7: stop")},
		{"continuation-error", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(10) })
			}
			e.SpawnContinuation(holdThen("bad", func() (bool, error) { return false, errors.New("bad") }))
		}, wantText(`sim: process "bad" failed: bad`)},
		{"continuation-panic", func(e *Engine) {
			for i := 0; i < 5; i++ {
				e.Spawn(fmt.Sprint(i), func(p *Process) { p.Hold(10) })
			}
			e.SpawnContinuation(holdThen("bad", func() (bool, error) { panic("bad") }))
		}, wantText(`sim: process "bad" panicked: bad`)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New()
			c.build(e)
			if err := c.run(e); err != nil {
				t.Fatal(err)
			}
			waitForGoroutines(t, base)
		})
	}
}

func runToEnd(e *Engine) error {
	_, err := e.Run()
	return err
}

// wantErr runs e to the end and checks that the run fails with an E.
func wantErr[E error](e *Engine) error {
	_, err := e.Run()
	var target E
	if !errors.As(err, &target) {
		return fmt.Errorf("want %T, got %v", target, err)
	}
	return nil
}

// wantText runs e to the end and checks the run's error text.
func wantText(text string) func(e *Engine) error {
	return func(e *Engine) error {
		if _, err := e.Run(); err == nil || err.Error() != text {
			return fmt.Errorf("Run error = %v, want %s", err, text)
		}
		return nil
	}
}

// holdThen is a continuation that holds for one time unit and then
// returns what end returns.
func holdThen(name string, end func() (bool, error)) *cont {
	held := false
	return &cont{name: name, resume: func(p *Process) (bool, error) {
		if held {
			return end()
		}
		held = true
		p.BeginHold(1)
		return true, nil
	}}
}

// TestWorkerReuseBoundsGoroutines runs 10,000 spawn-and-finish cycles on
// one engine: finished processes hand their goroutine to later ones, so
// the goroutine count stays within the peak number of live processes.
// Each cycle's first child finishes at once, so the second starts on the
// goroutine the first finished on.
func TestWorkerReuseBoundsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	peakLive, peakExtra := 0, 0
	workers := map[*worker]bool{}
	probe := func(q *Process) {
		workers[q.w] = true
		if n := e.LiveProcesses(); n > peakLive {
			peakLive = n
		}
		if n := runtime.NumGoroutine() - base; n > peakExtra {
			peakExtra = n
		}
	}
	e.Spawn("spawner", func(p *Process) {
		for i := 0; i < 10_000; i++ {
			e.Spawn("instant", probe)
			e.Spawn("transient", func(q *Process) {
				probe(q)
				q.Hold(0.5)
				probe(q)
			})
			p.Hold(1)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peakExtra > peakLive+1 {
		t.Errorf("%d goroutines for at most %d live processes", peakExtra, peakLive)
	}
	if len(workers) > peakLive {
		t.Errorf("20000 transient processes ran on %d workers, want at most %d", len(workers), peakLive)
	}
	waitForGoroutines(t, base)
}

// TestCallbackPanicReachesRunCaller fires a panicking At callback while
// processes are parked: the panic leaves Run on the caller's goroutine
// with its original value, and the parked processes are unwound.
func TestCallbackPanicReachesRunCaller(t *testing.T) {
	type boom struct{ msg string }
	want := &boom{"callback failed"}
	base := runtime.NumGoroutine()
	e := New()
	mb := e.NewMailbox("mb")
	unwound := 0
	e.Spawn("holder", func(p *Process) {
		defer func() { unwound++ }()
		p.Hold(10)
	})
	e.Spawn("receiver", func(p *Process) {
		defer func() { unwound++ }()
		mb.Receive(p)
	})
	e.At(5, func() { panic(want) })

	var got interface{}
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != want {
		t.Fatalf("Run panicked with %v, want %v", got, want)
	}
	if unwound != 2 {
		t.Errorf("%d of 2 parked processes unwound", unwound)
	}
	waitForGoroutines(t, base)
}

// orderObserver records every lifecycle event as "time name kind".
type orderObserver struct{ events []string }

func (o *orderObserver) Event(t float64, p *Process, what string) {
	o.events = append(o.events, fmt.Sprintf("%g %s %s", t, p.Name(), what))
}

func (o *orderObserver) Sample(Sample) {}

// TestObserverEventOrder pins the exact lifecycle event sequence of a
// scenario mixing spawn from a process and from a callback, facility
// contention, mailbox send/receive, a barrier and RunUntil.
func TestObserverEventOrder(t *testing.T) {
	e := New()
	obs := &orderObserver{}
	e.SetObserver(obs, 0)
	cpu := e.NewFacility("cpu", 1)
	mb := e.NewMailbox("mb")
	bar := e.NewBarrier("bar", 2)
	e.Spawn("parent", func(p *Process) {
		e.Spawn("child", func(c *Process) {
			cpu.Use(c, 2)
			mb.Send("x")
			bar.Wait(c)
			c.Hold(1)
		})
		cpu.Use(p, 3)
		mb.Receive(p)
		bar.Wait(p)
		p.Hold(100)
	})
	e.At(4, func() {
		e.Spawn("late", func(l *Process) { l.Hold(0.5) })
	})
	end, err := e.RunUntil(50)
	if err != nil {
		t.Fatal(err)
	}
	if end != 6 {
		t.Errorf("RunUntil ended at t=%g, want 6", end)
	}
	want := []string{
		"0 parent spawn",
		"0 parent run",
		"0 child spawn",
		"0 parent hold",
		"0 child run",
		"0 child block",
		"3 parent run",
		"3 parent block",
		"3 child run",
		"3 child hold",
		"4 late spawn",
		"4 late run",
		"4 late hold",
		"4.5 late run",
		"4.5 late done",
		"5 child run",
		"5 child block",
		"5 parent run",
		"5 parent hold",
		"5 child run",
		"5 child hold",
		"6 child run",
		"6 child done",
	}
	if got := strings.Join(obs.events, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("event order:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestGoexitFinishesProcess: a process body that ends its goroutine with
// runtime.Goexit counts as finished, and the run carries on without it.
func TestGoexitFinishesProcess(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New()
	e.Spawn("quitter", func(p *Process) {
		p.Hold(1)
		runtime.Goexit()
	})
	e.Spawn("worker", func(p *Process) { p.Hold(5) })
	end, err := e.Run()
	if err != nil || end != 5 {
		t.Fatalf("Run = %g, %v; want 5, nil", end, err)
	}
	if got := e.EventCounts()[evDone]; got != 2 {
		t.Errorf("%d processes done, want 2", got)
	}
	waitForGoroutines(t, base)
}

// BenchmarkHandoff ping-pongs two processes on Hold, half a time unit
// apart, so every event switches control from one process to the other.
func BenchmarkHandoff(b *testing.B) {
	const holds = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		e.Spawn("ping", func(p *Process) {
			for j := 0; j < holds; j++ {
				p.Hold(1)
			}
		})
		e.Spawn("pong", func(p *Process) {
			p.Hold(0.5)
			for j := 0; j < holds; j++ {
				p.Hold(1)
			}
		})
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*holds), "ns/switch")
}
