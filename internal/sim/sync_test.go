package sim

import (
	"fmt"
	"strings"
	"testing"
)

func TestMailboxBufferedDelivery(t *testing.T) {
	e := New()
	mb := e.NewMailbox("mb")
	var got []interface{}
	e.Spawn("sender", func(p *Process) {
		mb.Send(1)
		mb.Send(2)
		p.Hold(5)
		mb.Send(3)
	})
	e.Spawn("receiver", func(p *Process) {
		p.Hold(1)
		got = append(got, mb.Receive(p)) // buffered
		got = append(got, mb.Receive(p)) // buffered
		got = append(got, mb.Receive(p)) // blocks until t=5
		if p.Now() != 5 {
			t.Errorf("third receive should complete at t=5, got %v", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("messages = %v", got)
	}
}

func TestMailboxFIFOReceivers(t *testing.T) {
	e := New()
	mb := e.NewMailbox("mb")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			p.Hold(float64(i)) // become a waiter in index order
			mb.Receive(p)
			order = append(order, i)
		})
	}
	e.Spawn("sender", func(p *Process) {
		p.Hold(10)
		for i := 0; i < 3; i++ {
			mb.Send(i)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("receivers not served FIFO: %v", order)
		}
	}
}

func TestMailboxTryReceive(t *testing.T) {
	e := New()
	mb := e.NewMailbox("mb")
	if _, ok := mb.TryReceive(); ok {
		t.Error("empty TryReceive should fail")
	}
	mb.Send("x")
	if mb.Pending() != 1 {
		t.Errorf("pending = %d", mb.Pending())
	}
	msg, ok := mb.TryReceive()
	if !ok || msg != "x" {
		t.Errorf("TryReceive = %v, %v", msg, ok)
	}
	if mb.Pending() != 0 {
		t.Errorf("pending after receive = %d", mb.Pending())
	}
}

func TestMailboxSendFromCallback(t *testing.T) {
	e := New()
	mb := e.NewMailbox("mb")
	var at float64
	e.Spawn("receiver", func(p *Process) {
		mb.Receive(p)
		at = p.Now()
	})
	e.At(7, func() { mb.Send("wake") })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7 {
		t.Errorf("receive completed at %v, want 7", at)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	e := New()
	b := e.NewBarrier("bar", 3)
	var release []float64
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			p.Hold(float64(i * 10)) // arrive at 0, 10, 20
			b.Wait(p)
			release = append(release, p.Now())
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range release {
		if r != 20 {
			t.Errorf("release times = %v, want all 20", release)
		}
	}
	if b.Cycles() != 1 {
		t.Errorf("cycles = %d", b.Cycles())
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	e := New()
	b := e.NewBarrier("bar", 2)
	rounds := 3
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			for r := 0; r < rounds; r++ {
				p.Hold(float64(i + 1))
				b.Wait(p)
			}
		})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Cycles() != rounds {
		t.Errorf("cycles = %d, want %d", b.Cycles(), rounds)
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0 parties should panic")
		}
	}()
	New().NewBarrier("bad", 0)
}

func TestEventSetWakesAll(t *testing.T) {
	e := New()
	ev := e.NewEvent("go")
	woke := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			ev.Wait(p)
			woke++
			if p.Now() != 3 {
				t.Errorf("woke at %v, want 3", p.Now())
			}
		})
	}
	e.At(3, ev.Set)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Errorf("woke = %d, want 4", woke)
	}
}

func TestEventSetIsSticky(t *testing.T) {
	e := New()
	ev := e.NewEvent("go")
	passed := false
	e.Spawn("late", func(p *Process) {
		p.Hold(10)
		ev.Wait(p) // already set: pass through without blocking
		passed = true
		if p.Now() != 10 {
			t.Errorf("late waiter delayed: %v", p.Now())
		}
	})
	e.At(1, ev.Set)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !passed {
		t.Error("late waiter never passed")
	}
	if !ev.IsSet() {
		t.Error("event should remain set")
	}
	ev.Reset()
	if ev.IsSet() {
		t.Error("reset should clear")
	}
}

func TestEventDoubleSetHarmless(t *testing.T) {
	e := New()
	ev := e.NewEvent("go")
	ev.Set()
	ev.Set()
	if !ev.IsSet() {
		t.Error("double set broke the event")
	}
}

func TestCounterJoin(t *testing.T) {
	e := New()
	c := e.NewCounter("join", 3)
	var joined float64
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprint(i), func(p *Process) {
			p.Hold(float64((i + 1) * 5)) // finish at 5, 10, 15
			c.Done()
		})
	}
	e.Spawn("main", func(p *Process) {
		c.Wait(p)
		joined = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 15 {
		t.Errorf("join completed at %v, want 15", joined)
	}
}

func TestCounterAlreadyDone(t *testing.T) {
	e := New()
	c := e.NewCounter("join", 0)
	ok := false
	e.Spawn("main", func(p *Process) {
		c.Wait(p) // passes immediately
		ok = true
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("zero counter should not block")
	}
}

// A drained counter rearmed with Reset joins the next group.
func TestCounterReset(t *testing.T) {
	e := New()
	c := e.NewCounter("join", 2)
	var joins []float64
	e.Spawn("main", func(p *Process) {
		for round := 0; round < 3; round++ {
			if round > 0 {
				c.Reset(2)
			}
			for i := 0; i < 2; i++ {
				d := float64(i + 1)
				e.Spawn("worker", func(p *Process) {
					p.Hold(d)
					c.Done()
				})
			}
			c.Wait(p)
			joins = append(joins, p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(joins) != "[2 4 6]" {
		t.Errorf("joins at %v, want [2 4 6]", joins)
	}
}

func TestCounterResetUndrainedPanics(t *testing.T) {
	c := New().NewCounter("join", 2)
	c.Done()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "1 Done calls outstanding") {
			t.Errorf("Reset of an undrained counter: recovered %v", r)
		}
	}()
	c.Reset(2)
}

// A steady message stream reuses the mailbox's queues: a ping-pong of
// pre-boxed messages allocates as much at 10,000 messages as at 1,000.
func TestMailboxStreamDoesNotAllocatePerMessage(t *testing.T) {
	var msg interface{} = "x"
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := New()
			ping, pong := e.NewMailbox("ping"), e.NewMailbox("pong")
			e.Spawn("a", func(p *Process) {
				for i := 0; i < n; i++ {
					ping.Send(msg)
					pong.Receive(p)
				}
			})
			e.Spawn("b", func(p *Process) {
				for i := 0; i < n; i++ {
					ping.Receive(p)
					pong.Send(msg)
				}
			})
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(10_000); large > small {
		t.Errorf("allocs per run: %v at 1,000 messages, %v at 10,000; want no growth", small, large)
	}
}

// fifo keeps FIFO order across any mix of pushes and pops, through the
// compactions that reuse its array.
func TestFifoOrder(t *testing.T) {
	var q fifo[int]
	var ref []int
	next := 0
	for i := 0; i < 5000; i++ {
		if i%7 < 4 || len(ref) == 0 {
			q.push(next)
			ref = append(ref, next)
			next++
			continue
		}
		if got := q.pop(); got != ref[0] {
			t.Fatalf("step %d: pop = %d, want %d", i, got, ref[0])
		}
		ref = ref[1:]
		if q.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", i, q.len(), len(ref))
		}
	}
}
