package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// cont is a test continuation: resume runs at every dispatch.
type cont struct {
	name   string
	resume func(p *Process) (bool, error)
}

func (c *cont) Name() string                    { return c.name }
func (c *cont) Resume(p *Process) (bool, error) { return c.resume(p) }

// script is a continuation that runs steps in order, each beginning at
// most one wait: a step that returns true waits, and the next step runs
// when the process is resumed.
func script(name string, steps ...func(p *Process) bool) *cont {
	i := 0
	return &cont{name: name, resume: func(p *Process) (bool, error) {
		for i < len(steps) {
			i++
			if steps[i-1](p) {
				return true, nil
			}
		}
		return false, nil
	}}
}

// contention is a two-process scenario on one Facility, Mailbox, Barrier
// and Counter, with each process given either as a blocking coroutine
// body or as the same steps for a continuation.
type contention struct {
	cpu *Facility
	mb  *Mailbox
	bar *Barrier
	cnt *Counter
	got interface{} // what b received
}

func newContention(e *Engine) *contention {
	return &contention{
		cpu: e.NewFacility("cpu", 1),
		mb:  e.NewMailbox("mb"),
		bar: e.NewBarrier("bar", 2),
		cnt: e.NewCounter("cnt", 1),
	}
}

func (s *contention) a(p *Process) {
	p.Hold(1)
	s.cpu.Use(p, 2)
	s.mb.Send("x")
	s.bar.Wait(p)
	s.cnt.Done()
	p.Hold(1)
}

func (s *contention) aSteps() []func(p *Process) bool {
	return []func(p *Process) bool{
		func(p *Process) bool { p.BeginHold(1); return true },
		func(p *Process) bool { return s.cpu.BeginAcquire(p) },
		func(p *Process) bool { p.BeginHold(2); return true },
		func(p *Process) bool {
			s.cpu.EndUse(p)
			s.mb.Send("x")
			return s.bar.BeginWait(p)
		},
		func(p *Process) bool { s.cnt.Done(); p.BeginHold(1); return true },
	}
}

func (s *contention) b(p *Process) {
	s.cpu.Use(p, 3)
	s.got = s.mb.Receive(p)
	s.bar.Wait(p)
	s.cnt.Wait(p)
	p.Hold(1)
}

func (s *contention) bSteps() []func(p *Process) bool {
	return []func(p *Process) bool{
		func(p *Process) bool { return s.cpu.BeginAcquire(p) },
		func(p *Process) bool { p.BeginHold(3); return true },
		func(p *Process) bool {
			s.cpu.EndUse(p)
			msg, wait := s.mb.BeginReceive(p)
			s.got = msg
			return wait
		},
		func(p *Process) bool {
			if s.got == nil {
				s.got = p.TakeMessage()
			}
			return s.bar.BeginWait(p)
		},
		func(p *Process) bool { return s.cnt.BeginWait(p) },
		func(p *Process) bool { p.BeginHold(1); return true },
	}
}

// TestContinuationsMatchCoroutines runs the contention scenario with
// either process, or both, as a continuation: the observer's lifecycle
// sequence, the event counts, the end time and the facility statistics
// equal those of two coroutine processes.
func TestContinuationsMatchCoroutines(t *testing.T) {
	type outcome struct {
		events   []string
		counts   EventCounts
		end      float64
		services int
		got      interface{}
	}
	run := func(contA, contB bool) outcome {
		e := New()
		obs := &orderObserver{}
		e.SetObserver(obs, 0)
		s := newContention(e)
		if contA {
			e.SpawnContinuation(script("a", s.aSteps()...))
		} else {
			e.Spawn("a", s.a)
		}
		if contB {
			e.SpawnContinuation(script("b", s.bSteps()...))
		} else {
			e.Spawn("b", s.b)
		}
		end, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return outcome{obs.events, e.EventCounts(), end, s.cpu.CompletedServices(), s.got}
	}
	want := run(false, false)
	if want.end != 6 || want.got != "x" || want.services != 2 {
		t.Fatalf("coroutine run: end %g, received %v, %d services; want 6, x, 2", want.end, want.got, want.services)
	}
	for _, c := range []struct{ a, b bool }{{true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("cont-a=%v/cont-b=%v", c.a, c.b), func(t *testing.T) {
			if got := run(c.a, c.b); !reflect.DeepEqual(got, want) {
				t.Errorf("got %+v\nwant %+v", got, want)
			}
		})
	}
}

// A continuation that calls a blocking method fails the run with a
// panic report instead of corrupting the engine.
func TestContinuationCannotBlock(t *testing.T) {
	e := New()
	e.SpawnContinuation(&cont{name: "c", resume: func(p *Process) (bool, error) {
		p.Hold(1)
		return false, nil
	}})
	_, err := e.Run()
	if err == nil || err.Error() != `sim: process "c" panicked: sim: a continuation process cannot block; it returns from Resume to wait` {
		t.Fatalf("Run error = %v", err)
	}
}

// BenchmarkContinuationHandoff is BenchmarkHandoff with continuation
// processes: every event switches control by function call.
func BenchmarkContinuationHandoff(b *testing.B) {
	const holds = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for _, start := range []float64{0, 0.5} {
			n := -1
			e.SpawnContinuation(&cont{name: "ping", resume: func(p *Process) (bool, error) {
				if n++; n == 0 {
					p.BeginHold(start)
					return true, nil
				}
				if n > holds {
					return false, nil
				}
				p.BeginHold(1)
				return true, nil
			}})
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*holds), "ns/switch")
}
