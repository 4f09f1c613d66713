package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestHoldAdvancesTime(t *testing.T) {
	e := New()
	var at float64
	e.Spawn("p", func(p *Process) {
		p.Hold(5)
		p.Hold(2.5)
		at = p.Now()
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if at != 7.5 || end != 7.5 {
		t.Errorf("time = %v / %v, want 7.5", at, end)
	}
}

func TestNegativeHoldClamped(t *testing.T) {
	e := New()
	e.Spawn("p", func(p *Process) { p.Hold(-3) })
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Errorf("negative hold should not move time backwards: %v", end)
	}
}

func TestProcessInterleaving(t *testing.T) {
	e := New()
	var order []string
	log := func(s string) { order = append(order, s) }
	e.Spawn("a", func(p *Process) {
		log("a0")
		p.Hold(10)
		log("a10")
	})
	e.Spawn("b", func(p *Process) {
		log("b0")
		p.Hold(5)
		log("b5")
		p.Hold(10)
		log("b15")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "b5", "a10", "b15"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	// Events at the same timestamp run in schedule order.
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			p.Hold(1)
			order = append(order, i)
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time ordering not FIFO: %v", order)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := New()
		var log []string
		s := NewStream(42)
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprint(i), func(p *Process) {
				for j := 0; j < 3; j++ {
					p.Hold(s.Exponential(2))
					log = append(log, fmt.Sprintf("%d@%.9f", i, p.Now()))
				}
			})
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Error("two identical runs diverged")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New()
	var childTime float64
	e.Spawn("parent", func(p *Process) {
		p.Hold(3)
		e.Spawn("child", func(c *Process) {
			c.Hold(4)
			childTime = c.Now()
		})
		p.Hold(1)
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if childTime != 7 {
		t.Errorf("child finished at %v, want 7", childTime)
	}
	if end != 7 {
		t.Errorf("end = %v", end)
	}
}

func TestAtAndAfterCallbacks(t *testing.T) {
	e := New()
	var fired []float64
	e.At(5, func() { fired = append(fired, e.Now()) })
	e.Spawn("p", func(p *Process) {
		p.Hold(2)
		e.After(1, func() { fired = append(fired, e.Now()) })
		p.Hold(10)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 5 {
		t.Errorf("callbacks fired at %v, want [3 5]", fired)
	}
}

func TestPanicPropagates(t *testing.T) {
	e := New()
	e.Spawn("boom", func(p *Process) {
		p.Hold(1)
		panic("kaboom")
	})
	_, err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic should surface as error: %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New()
	mb := e.NewMailbox("never")
	e.Spawn("waiter", func(p *Process) {
		mb.Receive(p) // nobody sends
	})
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Processes) != 1 || dl.Processes[0] != "waiter" {
		t.Errorf("deadlock report wrong: %+v", dl)
	}
	if !strings.Contains(dl.Error(), "waiter") {
		t.Errorf("deadlock message should name the process")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	steps := 0
	e.Spawn("p", func(p *Process) {
		for i := 0; i < 100; i++ {
			p.Hold(1)
			steps++
		}
	})
	end, err := e.RunUntil(10)
	if err != nil {
		t.Fatal(err)
	}
	if end != 10 || steps != 10 {
		t.Errorf("RunUntil stopped at %v after %d steps, want 10/10", end, steps)
	}
}

func TestRunWithNoEvents(t *testing.T) {
	e := New()
	end, err := e.Run()
	if err != nil || end != 0 {
		t.Errorf("empty run: %v, %v", end, err)
	}
}

// eventFunc is an Observer that hands lifecycle events to a func and
// ignores samples.
type eventFunc func(t float64, p *Process, what string)

func (f eventFunc) Event(t float64, p *Process, what string) { f(t, p, what) }
func (eventFunc) Sample(Sample)                              {}

func TestTracerObservesLifecycle(t *testing.T) {
	e := New()
	var events []string
	e.SetObserver(eventFunc(func(tm float64, p *Process, what string) {
		events = append(events, fmt.Sprintf("%s:%s", p.Name(), what))
	}), 0)
	e.Spawn("p", func(p *Process) { p.Hold(1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(events, ",")
	for _, want := range []string{"p:spawn", "p:run", "p:hold", "p:done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("observer missed %q: %v", want, events)
		}
	}
}

func TestYield(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b1")
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a1,b1,a2"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("yield order = %s, want %s", got, want)
	}
}

func TestManyProcessesNoLeak(t *testing.T) {
	// Shutdown must unwind every parked goroutine, including ones that
	// never ran and ones left blocked after a deadlock.
	base := runtime.NumGoroutine()
	e := New()
	mb := e.NewMailbox("mb")
	for i := 0; i < 100; i++ {
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			mb.Receive(p)
		})
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	waitForGoroutines(t, base)
	// The engine has been shut down; a fresh run on a new engine still
	// works (nothing global leaked or corrupted).
	e2 := New()
	e2.Spawn("ok", func(p *Process) { p.Hold(1) })
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base)
}

func TestClockNeverMovesBackwards(t *testing.T) {
	e := New()
	last := -1.0
	s := NewStream(7)
	for i := 0; i < 20; i++ {
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			for j := 0; j < 50; j++ {
				p.Hold(s.Uniform(0, 3))
				if p.Now() < last {
					t.Errorf("clock went backwards: %v after %v", p.Now(), last)
				}
				last = p.Now()
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDistributions(t *testing.T) {
	s := NewStream(123)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(4)
		if v < 0 {
			t.Fatal("exponential produced negative value")
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-4) > 0.2 {
		t.Errorf("exponential mean = %v, want ~4", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		v := s.Uniform(2, 6)
		if v < 2 || v >= 6 {
			t.Fatalf("uniform out of range: %v", v)
		}
		sum += v
	}
	mean = sum / float64(n)
	if math.Abs(mean-4) > 0.1 {
		t.Errorf("uniform mean = %v, want ~4", mean)
	}

	for i := 0; i < 1000; i++ {
		if s.Normal(1, 10) < 0 {
			t.Fatal("normal should be truncated at 0")
		}
	}
	if v := s.Intn(5); v < 0 || v >= 5 {
		t.Errorf("Intn out of range: %d", v)
	}
	if v := s.Float64(); v < 0 || v >= 1 {
		t.Errorf("Float64 out of range: %v", v)
	}
}

func TestStreamsReproducible(t *testing.T) {
	a, b := NewStream(9), NewStream(9)
	for i := 0; i < 100; i++ {
		if a.Exponential(1) != b.Exponential(1) {
			t.Fatal("equal seeds should yield equal streams")
		}
	}
}

// countingCont is a continuation that builds its name on demand and
// counts the calls.
type countingCont struct {
	cont
	calls int
}

func (n *countingCont) Name() string { n.calls++; return n.name }

// A continuation is named once, on the first read, and every reader —
// Process.Name, DeadlockError, ProcessError — sees that name.
func TestContinuationNamesOnRead(t *testing.T) {
	e := New()
	mb := e.NewMailbox("never")
	quiet := &countingCont{cont: *holdThen("quiet", func() (bool, error) { return false, nil })}
	stuck := &countingCont{cont: cont{name: "stuck", resume: func(p *Process) (bool, error) {
		if p.Name() != "stuck" || p.Name() != "stuck" {
			t.Errorf("Name() = %q", p.Name())
		}
		_, wait := mb.BeginReceive(p)
		return wait, nil
	}}}
	e.SpawnContinuation(quiet)
	e.SpawnContinuation(stuck)
	_, err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) || fmt.Sprint(dl.Processes) != "[stuck]" {
		t.Fatalf("want a deadlock of [stuck], got %v", err)
	}
	if quiet.calls != 0 || stuck.calls != 1 {
		t.Errorf("namer calls: quiet %d, stuck %d; want 0 and 1", quiet.calls, stuck.calls)
	}

	e = New()
	failing := &countingCont{cont: cont{name: "failing", resume: func(*Process) (bool, error) {
		return false, errors.New("boom")
	}}}
	e.SpawnContinuation(failing)
	_, err = e.Run()
	var pe *ProcessError
	if !errors.As(err, &pe) || pe.Process != "failing" || failing.calls != 1 {
		t.Errorf("want ProcessError from %q after one namer call, got %v (%d calls)", "failing", err, failing.calls)
	}
}

// With an observer installed, the name is fixed at spawn.
func TestContinuationObserverNamesAtSpawn(t *testing.T) {
	e := New()
	var seen []string
	e.SetObserver(eventFunc(func(_ float64, p *Process, what string) {
		if what == "spawn" {
			seen = append(seen, p.Name())
		}
	}), 0)
	n := &countingCont{cont: cont{name: "branch", resume: func(*Process) (bool, error) { return false, nil }}}
	e.SpawnContinuation(n)
	n.name = "reused"
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[branch]" || n.calls != 1 {
		t.Errorf("observer saw %v after %d namer calls; want [branch] after 1", seen, n.calls)
	}
}
