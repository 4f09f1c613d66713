package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"prophet/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 333, 3000} {
		tl, ok := tailOf(seq(n))
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range seq(n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond != tailMinBeyond || tl.Beyond != tailMinBeyond || tl.N != n {
			t.Errorf("n=%d: %d samples beyond the tail (reported %d of n=%d), want %d", n, beyond, tl.Beyond, tl.N, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); tl.Percentile != want {
			t.Errorf("n=%d: percentile %v, want %v", n, tl.Percentile, want)
		}
	}
	if _, ok := tailOf(seq(tailMinBeyond)); ok {
		t.Errorf("a tail from %d samples leaves fewer than %d beyond it", tailMinBeyond, tailMinBeyond)
	}
	tl, _ := tailOf(seq(100))
	if got, want := tl.String(), "p90.00 of n=100 (10 samples beyond)"; got != want {
		t.Errorf("tail prints %q, want %q", got, want)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python: statistics.median(xs) and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{7, 1, 5, 3, 9}, 5, 2, 8},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3, ok := quartiles(c.xs)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample")
	}
}

func TestErrorRateCountsFailures(t *testing.T) {
	var tl tally
	if tl.errorRate() != 0 {
		t.Error("error rate of no ops is not 0")
	}
	tl.record(nil)
	tl.record(errors.New("status 503"))
	tl.record(nil)
	tl.record(errors.New("makespan differs"))
	tl.fail(errors.New("later check"))
	if tl.attempted != 4 || tl.failed != 3 || tl.errorRate() != 0.75 {
		t.Errorf("attempted %d failed %d rate %v, want 4, 3, 0.75", tl.attempted, tl.failed, tl.errorRate())
	}
	if tl.firstErr != "status 503" {
		t.Errorf("first error %q, want the first failure's", tl.firstErr)
	}
}

func TestSeedReproducesInputs(t *testing.T) {
	if !reflect.DeepEqual(transformOrder(7), transformOrder(7)) ||
		!reflect.DeepEqual(mcOrder(7), mcOrder(7)) ||
		!reflect.DeepEqual(serveSchedule(7, 5), serveSchedule(7, 5)) {
		t.Fatal("the same seed gave different inputs")
	}
	if reflect.DeepEqual(transformOrder(7), transformOrder(8)) ||
		reflect.DeepEqual(mcOrder(7), mcOrder(8)) ||
		reflect.DeepEqual(serveSchedule(7, 5), serveSchedule(8, 5)) {
		t.Fatal("different seeds gave the same inputs")
	}
	if !reflect.DeepEqual(transformSpecs(), transformSpecs()) {
		t.Fatal("the transform pool is not fixed")
	}
}

func TestTransformOrderCoversEveryBandPerBlock(t *testing.T) {
	order := transformOrder(3)
	seen := map[int]bool{}
	for b := 0; b+transformStrata <= len(order); b += transformStrata {
		bands := map[int]bool{}
		for _, idx := range order[b : b+transformStrata] {
			bands[idx%transformStrata] = true
			if seen[idx] {
				t.Fatalf("pool entry %d taken twice", idx)
			}
			seen[idx] = true
		}
		if len(bands) != transformStrata {
			t.Fatalf("block at %d covers %d of %d size bands", b, len(bands), transformStrata)
		}
	}
	for _, sp := range transformSpecs() {
		if sp.Nodes < transformMinNodes || sp.Nodes > transformMaxNodes {
			t.Fatalf("pool model of %d nodes is outside [%d, %d]", sp.Nodes, transformMinNodes, transformMaxNodes)
		}
	}
}

func TestServeSchedule(t *testing.T) {
	s := serveSchedule(11, 5)
	used := map[[2]int]bool{}
	var repeats, auto int
	for i, e := range s {
		if e.first == i {
			k := [2]int{e.model, e.variant}
			if used[k] {
				t.Fatalf("entry %d reuses model %d variant %d", i, e.model, e.variant)
			}
			used[k] = true
			continue
		}
		repeats++
		if e.first >= i || s[e.first] != e {
			t.Fatalf("entry %d repeats %d, which is not an earlier identical request", i, e.first)
		}
		newer := 0
		for j := e.first + 1; j < i; j++ {
			if s[j].first == j {
				newer++
			}
		}
		if newer >= serveWindow {
			t.Fatalf("entry %d repeats a request %d new requests old", i, newer)
		}
	}
	for _, e := range s {
		if e.auto {
			auto++
		}
	}
	if r := float64(repeats) / float64(len(s)); math.Abs(r-serveRepeat) > 0.02 {
		t.Errorf("repeat share %v, want about %v", r, serveRepeat)
	}
	if r := float64(auto) / float64(len(s)); math.Abs(r-serveAuto) > 0.02 {
		t.Errorf("mode=auto share %v, want about %v", r, serveAuto)
	}
}

func TestAttributeSumsToRoot(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * 1e6)) }
	// A 10 ms op with two parallel 4 ms jobs (overlapping 2..6 and 3..7)
	// each holding a 1 ms sim span, and a 1 ms compile span.
	job := func(start float64) *obs.SpanNode {
		return &obs.SpanNode{Name: "mc-run", Start: at(start), Seconds: 4e-3, Children: []*obs.SpanNode{
			{Name: "sim", Start: at(start + 1), Seconds: 1e-3},
		}}
	}
	root := &obs.SpanNode{Name: "batch", Start: at(0), Seconds: 10e-3, Children: []*obs.SpanNode{
		{Name: "compile", Start: at(0.5), Seconds: 1e-3},
		job(2), job(3),
	}}
	acc := map[string]float64{}
	attribute(root, acc)
	var sum float64
	for _, v := range acc {
		sum += v
	}
	if math.Abs(sum-10) > 1e-6 {
		t.Errorf("self times sum to %v ms, want the root's 10 ms (%v)", sum, acc)
	}
	// Children cover 1 + 5 = 6 ms of the root, so 4 ms is the root's own.
	if math.Abs(acc["unattributed"]-4) > 1e-6 {
		t.Errorf("unattributed %v ms, want 4", acc["unattributed"])
	}
	// Each job ran alone for 1 ms and shared 3 ms with the other: 2.5 ms
	// of wall time each, so each job's spans count 2.5/4 of their length.
	want := map[string]float64{"interp": 1, "runner": 2 * 3 * 2.5 / 4, "sim": 2 * 1 * 2.5 / 4}
	for l, v := range want {
		if math.Abs(acc[l]-v) > 1e-6 {
			t.Errorf("%s self time %v ms, want %v", l, acc[l], v)
		}
	}
}

// TestBenchmarkJSONNamesTheMetrics keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

func TestAtReferenceSpeedScalesTimesAndRates(t *testing.T) {
	// A host twice as slow in wall time and 1.5 times in CPU time.
	const f, fc = 2.0, 1.5
	cases := map[string][2]float64{ // name: measured, at reference speed
		"setup_s":          {0.4, 0.2},
		"latency_p50_ms":   {30, 15},
		"latency_tail_ms":  {80, 40},
		"throughput_ops_s": {10, 20},
		"cpu_ms_per_op":    {60, 40},
	}
	for name, c := range cases {
		if got := atReferenceSpeed(name, c[0], f, fc); math.Abs(got-c[1]) > 1e-12 {
			t.Errorf("%s: %v measured reads %v at reference speed, want %v", name, c[0], got, c[1])
		}
	}
}

func TestCalibratorFactorIsMedianOverNominal(t *testing.T) {
	c := &calibrator{
		samples: []float64{5 * calibNominalMs, calibNominalMs, 2 * calibNominalMs},
		cpuMs:   []float64{3 * calibNominalCPUMs, calibNominalCPUMs / 2, calibNominalCPUMs},
	}
	if got := c.factor(); got != 2 {
		t.Errorf("factor %v, want the median sample over the nominal, 2", got)
	}
	if got := c.cpuFactor(); got != 1 {
		t.Errorf("cpu factor %v, want 1", got)
	}
	// A real sample takes time and counts it as spent, outside windows.
	before := len(c.samples)
	c.kernels = []*refKernel{newRefKernel(1), newRefKernel(2)}
	c.sample()
	if len(c.samples) != before+1 || len(c.cpuMs) != before+1 || c.samples[before] <= 0 || c.spent <= 0 {
		t.Errorf("sample recorded %d wall and %d CPU samples, last %v ms, spent %v", len(c.samples), len(c.cpuMs), c.samples[len(c.samples)-1], c.spent)
	}
}

func TestLayerTimesAreScaledOnly(t *testing.T) {
	for _, u := range []string{"ms", "us", "ns/node", "ns/event"} {
		if !isTimeUnit(u) {
			t.Errorf("%s is a time, but would not be scaled to the reference host", u)
		}
	}
	for _, u := range []string{"MB", "KiB", "count", "ratio"} {
		if isTimeUnit(u) {
			t.Errorf("%s is not a time, but would be scaled to the reference host", u)
		}
	}
}
