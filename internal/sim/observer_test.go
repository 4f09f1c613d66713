package sim

import (
	"math"
	"testing"
)

// collectObserver retains everything it is handed, unfiltered.
type collectObserver struct {
	events  []string
	samples []Sample
}

func (c *collectObserver) Event(t float64, p *Process, what string) {
	c.events = append(c.events, what)
}
func (c *collectObserver) Sample(s Sample) { c.samples = append(c.samples, s) }

func TestObserverSamplesFacilityTelemetry(t *testing.T) {
	e := New()
	cpu := e.NewFacility("cpu", 1)
	mbox := e.NewMailbox("mbox")
	obs := &collectObserver{}
	e.SetObserver(obs, 0)

	for i := 0; i < 3; i++ {
		e.Spawn("worker", func(p *Process) {
			cpu.Use(p, 1)
		})
	}
	e.Spawn("sender", func(p *Process) {
		p.Hold(0.5)
		mbox.Send("hello")
	})
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Fatalf("makespan = %v, want 3", end)
	}
	if len(obs.samples) == 0 {
		t.Fatal("no samples recorded")
	}
	var sawQueue, sawMail bool
	prev := -1.0
	for _, s := range obs.samples {
		if s.Time < prev {
			t.Errorf("sample times must be nondecreasing: %v after %v", s.Time, prev)
		}
		prev = s.Time
		if u := s.FacilityUtilization["cpu"]; u < 0 || u > 1 {
			t.Errorf("utilization out of range: %v", u)
		}
		if s.FacilityQueue["cpu"] > 0 {
			sawQueue = true
		}
		if s.MailboxDepth["mbox"] > 0 {
			sawMail = true
		}
	}
	if !sawQueue {
		t.Error("three jobs on one server should show a nonzero queue in some sample")
	}
	if !sawMail {
		t.Error("undelivered message should show a nonzero mailbox depth in some sample")
	}
	last := obs.samples[len(obs.samples)-1]
	if last.Time != end {
		t.Errorf("final sample at %v, want %v", last.Time, end)
	}
	if last.LiveProcesses != 0 || last.EventQueueLen != 0 {
		t.Errorf("final sample should see an idle engine: %+v", last)
	}
	if u := last.FacilityUtilization["cpu"]; u != 1 {
		t.Errorf("cpu was saturated the whole run, utilization = %v", u)
	}
}

func TestObserverAutoModeSamplesOncePerTimestamp(t *testing.T) {
	e := New()
	obs := &collectObserver{}
	e.SetObserver(obs, 0)
	// Three callbacks at the same instant, then one later.
	for i := 0; i < 3; i++ {
		e.At(1, func() {})
	}
	e.At(2, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, s := range obs.samples {
		counts[s.Time]++
	}
	if counts[1] != 1 {
		t.Errorf("auto mode sampled t=1 %d times, want 1", counts[1])
	}
	if counts[2] != 1 {
		t.Errorf("auto mode sampled t=2 %d times, want 1", counts[2])
	}
}

func TestObserverSamplingInterval(t *testing.T) {
	e := New()
	obs := &collectObserver{}
	e.SetObserver(obs, 2.5)
	e.Spawn("clock", func(p *Process) {
		for i := 0; i < 10; i++ {
			p.Hold(1)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Threshold crossings at 0, 2.5, 5, 7.5, 10 → samples at 0, 3, 5, 8, 10.
	want := []float64{0, 3, 5, 8, 10}
	if len(obs.samples) != len(want) {
		t.Fatalf("got %d samples %+v, want times %v", len(obs.samples), obs.samples, want)
	}
	for i, s := range obs.samples {
		if s.Time != want[i] {
			t.Errorf("sample %d at t=%v, want %v", i, s.Time, want[i])
		}
	}
}

func TestRecorderDecimation(t *testing.T) {
	r := NewRecorder(16)
	const n = 10000
	for i := 0; i < n; i++ {
		r.Sample(Sample{Time: float64(i)})
	}
	got := r.Samples()
	if len(got) > 17 { // capacity + possibly the trailing live sample
		t.Errorf("decimation failed: %d samples retained", len(got))
	}
	prev := -1.0
	for _, s := range got {
		if s.Time <= prev {
			t.Errorf("retained series out of order: %v after %v", s.Time, prev)
		}
		prev = s.Time
	}
	if got[0].Time != 0 {
		t.Errorf("first sample dropped: %v", got[0].Time)
	}
	if got[len(got)-1].Time != n-1 {
		t.Errorf("latest sample must survive decimation, got %v", got[len(got)-1].Time)
	}
}

func TestRecorderEventCountsAndReset(t *testing.T) {
	e := New()
	r := NewRecorder(0)
	e.SetObserver(r, 0)
	e.Spawn("p", func(p *Process) { p.Hold(1) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	counts := r.EventCounts()
	for _, kind := range []string{"spawn", "run", "hold", "done"} {
		if counts[kind] == 0 {
			t.Errorf("event kind %q not counted: %v", kind, counts)
		}
	}
	r.Reset()
	if len(r.Samples()) != 0 || len(r.EventCounts()) != 0 {
		t.Error("reset should clear recorder state")
	}
}

func TestEngineIntrospection(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Spawn("p", func(p *Process) {})
	if got := e.EventQueueLen(); got != 2 {
		t.Errorf("EventQueueLen = %d, want 2 (callback + spawn wake)", got)
	}
	if got := e.LiveProcesses(); got != 1 {
		t.Errorf("LiveProcesses = %d, want 1", got)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.LiveProcesses(); got != 0 {
		t.Errorf("after run LiveProcesses = %d, want 0", got)
	}
}

// The engine counts lifecycle transitions and reports end-of-run
// utilization without an observer, and sampling does not move them: a
// sampled and an unsampled run of the same processes agree bit for bit,
// and with the recorder's own counts and final sample.
func TestStatisticsWithoutObserver(t *testing.T) {
	run := func(rec *Recorder) *Engine {
		e := New()
		cpu := e.NewFacility("cpu", 1)
		if rec != nil {
			e.SetObserver(rec, 0)
		}
		// Services separated by idle gaps, and a ticker whose holds put
		// samples inside the services: integrating at each sample would
		// round the busy integral differently.
		e.Spawn("user", func(p *Process) {
			for j := 1; j < 6; j++ {
				p.Hold(math.Sqrt(float64(j)) / 7)
				cpu.Use(p, math.Sqrt(float64(j+11))/5)
			}
		})
		e.Spawn("ticker", func(p *Process) {
			for j := 1; j < 90; j++ {
				p.Hold(math.Sqrt(float64(j)) / 60)
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	rec := NewRecorder(0)
	sampled, plain := run(rec), run(nil)
	if plain.Now() != sampled.Now() {
		t.Fatalf("sampling changed the run: end %v vs %v", sampled.Now(), plain.Now())
	}
	samples := rec.Samples()
	want := samples[len(samples)-1].FacilityUtilization
	for _, e := range []*Engine{sampled, plain} {
		got := e.FacilityUtilization()
		if len(got) != len(want) {
			t.Fatalf("utilization %v, final sample %v", got, want)
		}
		for name, u := range want {
			if got[name] != u {
				t.Errorf("%s utilization %v, final sample %v", name, got[name], u)
			}
		}
		counts := e.EventCounts().Map()
		if len(counts) != len(rec.EventCounts()) {
			t.Fatalf("event counts %v, recorder %v", counts, rec.EventCounts())
		}
		for kind, n := range rec.EventCounts() {
			if counts[kind] != n {
				t.Errorf("%s events %d, recorder %d", kind, counts[kind], n)
			}
		}
	}
}

// LoneProcessEventCounts is what the engine counts for one process that
// holds and never blocks.
func TestLoneProcessEventCounts(t *testing.T) {
	for _, holds := range []int{0, 1, 5} {
		e := New()
		e.Spawn("p0", func(p *Process) {
			for i := 0; i < holds; i++ {
				p.Hold(float64(i))
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := e.EventCounts(), LoneProcessEventCounts(int64(holds)); got != want {
			t.Errorf("holds=%d: engine %v, lone-process %v", holds, got.Map(), want.Map())
		}
	}
}
