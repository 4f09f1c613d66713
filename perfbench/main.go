// Command perfbench is prophet's end-to-end benchmark. It runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the run's correctness, its operation
// counts and its metrics: the end-to-end metrics of an untraced run
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//	go run . --workload transform --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and how each layer is
// measured.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics, with their units.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, with their units. Every
// workload prints all of them; a layer a workload does not reach reads 0.
var perLayer = func() [][2]string {
	out := [][2]string{
		{"error_rate", "ratio"},
		{"xmi.decode_ms", "ms"},
		{"xmi.decode_ns_per_node", "ns/node"},
		{"xmi.nodes_per_op", "count"},
		{"xmi.hash_ms", "ms"},
		{"checker.check_ms", "ms"},
		{"checker.ns_per_node", "ns/node"},
		{"checker.runs_per_op", "count"},
		{"cppgen.generate_ms", "ms"},
		{"cppgen.output_kb", "KiB"},
		{"gogen.generate_ms", "ms"},
		{"gogen.output_kb", "KiB"},
		{"interp.compile_ms", "ms"},
		{"lower.lower_ms", "ms"},
		{"lower.cache_hit_ratio", "ratio"},
		{"sim.simulate_ms", "ms"},
		{"sim.events_per_op", "count"},
		{"sim.ns_per_event", "ns/event"},
		{"sim.direct_share", "ratio"},
		{"trace.summarize_ms", "ms"},
		{"analytic.solve_ms", "ms"},
		{"analytic.resolved_share", "ratio"},
		{"estimator.compile_cache_hit_ratio", "ratio"},
		{"estimator.retained_heap_mb", "MB"},
		{"runner.batch_ms", "ms"},
		{"runner.run_us", "us"},
		{"runner.runs_per_op", "count"},
		{"runner.parallel_efficiency", "ratio"},
		{"server.hit_latency_p50_ms", "ms"},
		{"server.miss_latency_p50_ms", "ms"},
		{"server.result_cache_hit_ratio", "ratio"},
		{"server.coalesced_share", "ratio"},
		{"server.admission_ms", "ms"},
		{"gc.cycles_per_op", "count"},
		{"gc.cpu_fraction", "ratio"},
	}
	for _, l := range layers {
		out = append(out, [2]string{l + ".self_ms", "ms"})
	}
	return append(out,
		[2]string{"unattributed_ms", "ms"},
		[2]string{"tracing_overhead_share", "ratio"},
	)
}()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. The last setup's state is the one measured.
const setupRepeats = 15

// workload is what each workload implements. setup builds the measured
// state from scratch (it runs setupRepeats times), teardown releases it
// (a no-op when there is none), and measure runs operations until the
// deadline and reports what it saw, sampling the calibration kernel
// between ops (cal.tick) and keeping those samples out of its window.
type workload interface {
	setup() error
	teardown()
	measure(deadline time.Duration, traced bool, cal *calibrator) (*measurement, error)
}

// measurement is what one measured window produced.
type measurement struct {
	tally
	latencies []float64 // ms, one per attempted op
	window    float64   // seconds the ops took, for throughput
	cpu       float64   // process CPU seconds spent on the ops
	layer     map[string]float64
	notes     []string
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: transform, montecarlo or serve")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := fs.Int("seconds", 25, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	regen := fs.String("regen-refs", "", "recompute the reference outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenRefs(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var w workload
	switch *name {
	case "transform":
		w = newTransform(r, *seed)
	case "montecarlo":
		w, err = newMonteCarlo(r, *seed)
	case "serve":
		w, err = newServe(r, *seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(w, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// execute sets the workload up, measures it and turns the measurement
// into the result line.
func execute(w workload, d time.Duration, traced bool) (*result, error) {
	defer w.teardown() // stops the serve workload's server; idempotent
	cal := newCalibrator()
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		cal.sample()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	gc0 := readGC()
	steal0, total0 := hostSteal()
	m, err := w.measure(d, traced, cal)
	if err != nil {
		return nil, err
	}
	f, fc := cal.factor(), cal.cpuFactor()
	gc1 := readGC()
	steal1, total1 := hostSteal()
	if m.attempted == 0 {
		return nil, fmt.Errorf("no operation completed")
	}

	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s steal_share=%.3f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		ratio(steal1-steal0, total1-total0))
	q1, q3, _ := quartiles(cal.samples)
	fmt.Printf("host speed: calibration kernel median %.4g ms of %d samples (quartiles %.4g, %.4g), reference %.4g ms, factor %.4f; CPU median %.4g ms, reference %.4g ms, cpu_factor %.4f\n",
		median(cal.samples), len(cal.samples), q1, q3, calibNominalMs, f, median(cal.cpuMs), calibNominalCPUMs, fc)
	for _, n := range m.notes {
		fmt.Println(n)
	}
	if m.failed > 0 {
		fmt.Printf("failed %d of %d ops; first: %s\n", m.failed, m.attempted, m.firstErr)
	}

	vals := map[string]float64{}
	if traced {
		for k, v := range m.layer {
			vals[k] = v
		}
		ops := float64(m.attempted)
		vals["error_rate"] = m.errorRate()
		vals["gc.cycles_per_op"] = (gc1.cycles - gc0.cycles) / ops
		vals["gc.cpu_fraction"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
		// What the program keeps alive: the live heap with the
		// workload's state held, minus the live heap once it is dropped
		// (inputs the harness still holds cancel out).
		runtime.GC()
		held := heapMB()
		w.teardown()
		vals["estimator.retained_heap_mb"] = held - settledHeapMB()
	} else {
		tl, ok := tailOf(m.latencies)
		if !ok {
			return nil, fmt.Errorf("%d ops are too few for a tail latency", len(m.latencies))
		}
		q1, q3, _ := quartiles(setups)
		fmt.Printf("latency_tail_ms is %s\n", tl)
		fmt.Printf("setup_s is the median of %d setups (quartiles %.4g s, %.4g s)\n", setupRepeats, q1, q3)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		raw := map[string]float64{
			"setup_s":          median(setups),
			"latency_p50_ms":   median(m.latencies),
			"latency_tail_ms":  tl.Value,
			"throughput_ops_s": float64(m.attempted) / m.window,
			"cpu_ms_per_op":    m.cpu * 1e3 / float64(m.attempted),
		}
		fmt.Printf("raw (as measured on this host): setup_s %.6g, latency_p50_ms %.6g, latency_tail_ms %.6g, throughput_ops_s %.6g, cpu_ms_per_op %.6g\n",
			raw["setup_s"], raw["latency_p50_ms"], raw["latency_tail_ms"], raw["throughput_ops_s"], raw["cpu_ms_per_op"])
		for k, v := range raw {
			vals[k] = atReferenceSpeed(k, v, f, fc)
		}
		vals["peak_rss_mb"] = rss
	}

	list := endToEnd
	if traced {
		list = perLayer
	}
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, nu := range list {
		v, ok := vals[nu[0]]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", nu[0])
		}
		if traced && isTimeUnit(nu[1]) {
			v /= f // layer times read at the reference host's speed too
		}
		res.Metrics[nu[0]] = metric{Value: v, Unit: nu[1]}
	}
	if traced {
		printLayers(res.Metrics)
	}
	return res, nil
}

// atReferenceSpeed converts an end-to-end metric measured on a host f
// times slower than the reference host in wall time, and fc times in CPU
// time (see calib.go), to the reference host's speed: times shrink by
// the factor, rates grow by it.
func atReferenceSpeed(name string, v, f, fc float64) float64 {
	switch name {
	case "throughput_ops_s":
		return v * f
	case "cpu_ms_per_op":
		return v / fc
	}
	return v / f
}

// isTimeUnit reports whether a per-layer unit is a duration (per op or
// per unit of work) rather than a count, ratio or size.
func isTimeUnit(u string) bool {
	switch u {
	case "ms", "us", "ns/node", "ns/event":
		return true
	}
	return false
}

// printLayers prints the traced run's metrics one per line, for readers.
func printLayers(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// hostSteal returns the host's stolen and total CPU time so far, in
// clock ticks, from /proc/stat (zeros where it is unreadable). On a
// virtual machine, time the hypervisor gives to other guests slows every
// workload; the run prints its share so a reader can discount a run
// taken while the host was contended.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user .. steal; guest time is already in user
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// settledHeapMB collects garbage until the live heap stops shrinking and
// returns it in MiB: goroutines a teardown stopped (closed HTTP
// connections) can keep the state they served reachable for a moment
// after the stop returns.
func settledHeapMB() float64 {
	runtime.GC()
	h := heapMB()
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		runtime.GC()
		next := heapMB()
		if next > h-0.01 {
			return next
		}
		h = next
	}
	return h
}

// heapMB returns the live heap in MiB; call after runtime.GC.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcStats is a runtime/metrics snapshot of GC work.
type gcStats struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}
