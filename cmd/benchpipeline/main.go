// Command benchpipeline measures every transformation-pipeline stage
// separately — parse, canonical encode, content hash, check, traverse,
// compile, lower, C++ and Go code generation, and a short simulation —
// over synthetic models of increasing size (internal/modelgen), and
// writes the per-stage ns/op, allocs/op, and bytes/op trajectory to
// BENCH_pipeline.json:
//
//	go run ./cmd/benchpipeline -o BENCH_pipeline.json
//
// The front-end stages are what the TTC-style scalability argument is
// about (see docs/PERFORMANCE.md): the per-size document also records
// frontend_wall_ms, the single-pass cost of
// parse→check→traverse→compile→lower→codegen, which -frontend-budget-ms
// can turn into a hard gate.
//
// With -baseline pointing at a committed BENCH_pipeline.json, the tool
// compares each (size, stage) pair against the baseline and exits
// non-zero when a stage slowed down by more than -tolerance (default
// 2.0×, with a 1ms absolute floor so micro-stages don't trip on noise).
// CI runs this compare mode so front-end regressions cannot land
// silently; see the bench-pipeline job in .github/workflows/ci.yml.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prophet/internal/checker"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/modelgen"
	"prophet/internal/profile"
	"prophet/internal/traverse"
	"prophet/internal/xmi"
)

// stageResult is one pipeline stage's measurement at one model size.
type stageResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EventsPerOp is the simulate stage's amount of work: engine events
	// per run, so its ns/op splits into work and cost per event.
	EventsPerOp int64 `json:"events_per_op,omitempty"`
}

// sizeResult aggregates all stages at one generated model size.
type sizeResult struct {
	NodesTarget int             `json:"nodes_target"`
	Nodes       int             `json:"nodes"`
	Edges       int             `json:"edges"`
	Diagrams    int             `json:"diagrams"`
	XMIBytes    int             `json:"xmi_bytes"`
	GenParams   modelgen.Params `json:"gen_params"`
	Stages      []stageResult   `json:"stages"`
	// FrontendWallMs is the summed ns/op of
	// parse+check+traverse+compile+lower+codegen_cpp in milliseconds —
	// the cost of turning an XMI document into a generated performance
	// model, excluding simulation.
	FrontendWallMs float64 `json:"frontend_wall_ms"`
	// PeakRSSKb is /proc/self/status VmHWM after this size's stages.
	// The high-water mark is cumulative over the process, so it is only
	// meaningful as "the pipeline up to and including this size fits in
	// this much memory". Omitted (not 0) on systems without a readable
	// /proc — a missing measurement must not masquerade as a measured
	// zero in baseline documents.
	PeakRSSKb int64 `json:"peak_rss_kb,omitempty"`
}

// doc is the BENCH_pipeline.json schema.
type doc struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	NumCPU      int          `json:"num_cpu"`
	Seed        int64        `json:"seed"`
	Sizes       []sizeResult `json:"sizes"`
	Note        string       `json:"note"`
}

// frontendStages are the stages whose ns/op sum to frontend_wall_ms.
var frontendStages = map[string]bool{
	"parse": true, "check": true, "traverse": true,
	"compile": true, "lower": true, "codegen_cpp": true,
}

func main() {
	out := flag.String("o", "BENCH_pipeline.json", "output JSON path")
	sizesFlag := flag.String("sizes", "1000,10000,50000,100000", "comma-separated node-count targets")
	seed := flag.Int64("seed", 42, "modelgen seed (same seed, same models)")
	baseline := flag.String("baseline", "", "committed BENCH_pipeline.json to compare against; regressions beyond -tolerance fail")
	tolerance := flag.Float64("tolerance", 2.0, "slowdown factor vs baseline that counts as a regression")
	budget := flag.Float64("frontend-budget-ms", 0, "fail if frontend_wall_ms at the largest size exceeds this (0 = no gate)")
	flag.Parse()

	if err := run(*out, *sizesFlag, *seed, *baseline, *tolerance, *budget); err != nil {
		fmt.Fprintln(os.Stderr, "benchpipeline:", err)
		os.Exit(1)
	}
}

func run(out, sizesFlag string, seed int64, baseline string, tolerance, budgetMs float64) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	sizes, err := parseSizes(sizesFlag)
	if err != nil {
		return err
	}

	d := doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Note: "each stage measured in isolation (runtime.GC() fences, " +
			"allocs from MemStats deltas) over deterministic modelgen " +
			"models; frontend_wall_ms sums parse+check+traverse+compile+" +
			"lower+codegen_cpp ns/op; simulate runs the lowered backend " +
			"with NoTrace and reports its engine events per run as " +
			"events_per_op (omitted for a direct-mode run); peak_rss_kb is the process VmHWM (cumulative " +
			"across sizes). Regenerate with `make bench-pipeline`.",
	}

	for _, n := range sizes {
		sr, err := measureSize(seed, n)
		if err != nil {
			return fmt.Errorf("size %d: %w", n, err)
		}
		d.Sizes = append(d.Sizes, sr)
		fmt.Printf("size %6d: %d nodes, %d edges, %d diagrams, frontend %.1f ms\n",
			n, sr.Nodes, sr.Edges, sr.Diagrams, sr.FrontendWallMs)
		for _, st := range sr.Stages {
			fmt.Printf("    %-12s %4d iters  %12.0f ns/op  %10d allocs/op  %12d B/op\n",
				st.Name, st.Iterations, st.NsPerOp, st.AllocsPerOp, st.BytesPerOp)
		}
	}

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (gomaxprocs=%d num_cpu=%d)\n", out, d.GOMAXPROCS, d.NumCPU)

	if budgetMs > 0 && len(d.Sizes) > 0 {
		last := d.Sizes[len(d.Sizes)-1]
		if last.FrontendWallMs > budgetMs {
			return fmt.Errorf("frontend budget exceeded at %d nodes: %.1f ms > %.1f ms",
				last.NodesTarget, last.FrontendWallMs, budgetMs)
		}
	}
	if baseline != "" {
		return compareBaseline(baseline, d, tolerance)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return sizes, nil
}

// measureSize generates one model and drives it through every stage.
func measureSize(seed int64, nodes int) (sizeResult, error) {
	params := modelgen.Params{Seed: seed, Nodes: nodes}
	m, err := modelgen.Generate(params)
	if err != nil {
		return sizeResult{}, err
	}
	sr := sizeResult{NodesTarget: nodes, GenParams: params}
	for _, dg := range m.Diagrams() {
		sr.Diagrams++
		sr.Nodes += len(dg.Nodes())
		sr.Edges += len(dg.Edges())
	}

	xml, err := xmi.EncodeString(m)
	if err != nil {
		return sizeResult{}, err
	}
	sr.XMIBytes = len(xml)

	reg := profile.NewRegistry()
	var prog *interp.Program
	var lowered *lower.Program
	var events int64

	type stageDef struct {
		name string
		fn   func() error
	}
	stages := []stageDef{
		{"parse", func() error {
			_, err := xmi.DecodeString(xml)
			return err
		}},
		{"encode", func() error {
			_, err := xmi.EncodeString(m)
			return err
		}},
		{"hash", func() error {
			if h := xmi.HashBytes([]byte(xml)); h == "" {
				return fmt.Errorf("empty hash")
			}
			return nil
		}},
		{"check", func() error {
			// The uncached walk: Check would answer from m's memo.
			if rep, _ := checker.New().CheckCounted(m); rep.HasErrors() {
				return fmt.Errorf("model fails checking")
			}
			return nil
		}},
		{"traverse", func() error {
			return traverse.Run(m, countingHandler{})
		}},
		{"compile", func() error {
			p, err := interp.Compile(m, reg)
			if err == nil {
				prog = p
			}
			return err
		}},
		{"lower", func() error {
			lowered = lower.Lower(prog)
			return nil
		}},
		{"codegen_cpp", func() error {
			_, err := cppgen.NewWith(reg, cppgen.DefaultOptions()).Generate(m)
			return err
		}},
		{"codegen_go", func() error {
			_, err := gogen.NewWith(reg, gogen.DefaultOptions()).Generate(m)
			return err
		}},
		{"simulate", func() error {
			res, err := lowered.Run(interp.Config{NoTrace: true, Seed: 1})
			if err != nil {
				return err
			}
			if ev, ok := res.Stats.(interface{ EventsExecuted() int64 }); ok {
				events = ev.EventsExecuted()
			}
			return nil
		}},
	}

	for _, st := range stages {
		res, err := measureStage(st.name, nodes, st.fn)
		if err != nil {
			return sizeResult{}, fmt.Errorf("stage %s: %w", st.name, err)
		}
		if st.name == "simulate" {
			res.EventsPerOp = events
		}
		sr.Stages = append(sr.Stages, res)
		if frontendStages[st.name] {
			sr.FrontendWallMs += res.NsPerOp / 1e6
		}
	}
	if kb, ok := peakRSSKb(); ok {
		sr.PeakRSSKb = kb
	} else {
		warnNoProcOnce()
	}
	return sr, nil
}

// measureStage times fn with GC fences so one stage's garbage does not
// bill the next stage's clock. Iteration counts scale down with model
// size: micro-stages repeat until ~200ms of samples, whole-model stages
// at 100k nodes run a handful of times, simulate once.
func measureStage(name string, nodes int, fn func() error) (stageResult, error) {
	// Warm once (also primes lazily built state the stage depends on,
	// e.g. lower needs compile's program).
	if err := fn(); err != nil {
		return stageResult{}, err
	}
	budget := 200 * time.Millisecond
	maxIters := 200
	if nodes >= 50000 {
		maxIters = 3
	} else if nodes >= 10000 {
		maxIters = 20
	}
	if name == "simulate" && nodes >= 50000 {
		maxIters = 1
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		if err := fn(); err != nil {
			return stageResult{}, err
		}
		iters++
		if iters >= maxIters || time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return stageResult{
		Name:        name,
		Iterations:  iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(iters),
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(iters),
	}, nil
}

// countingHandler consumes traversal events without building anything, so
// the traverse stage measures pure navigation cost.
type countingHandler struct{}

func (countingHandler) Visit(traverse.Event) error { return nil }

// peakRSSKb reads VmHWM from /proc/self/status. The second return is
// false where the measurement is unavailable (no /proc outside Linux,
// or a masked /proc in a sandbox) so callers can omit the field rather
// than record a fake zero.
func peakRSSKb() (int64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// warnNoProcOnce notes the missing measurement on stderr a single time,
// so a full multi-size run does not repeat itself.
var warnedNoProc bool

func warnNoProcOnce() {
	if warnedNoProc {
		return
	}
	warnedNoProc = true
	fmt.Fprintln(os.Stderr, "benchpipeline: /proc/self/status unavailable; omitting peak_rss_kb")
}

// compareBaseline fails when any (size, stage) pair slowed down by more
// than tol× against the committed document. A 1ms absolute floor keeps
// nanosecond-scale stages (hash at 1k nodes) from tripping on timer
// noise, and stages or sizes absent from the baseline are reported but
// not fatal, so adding a stage does not require regenerating history.
func compareBaseline(path string, fresh doc, tol float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	type key struct {
		nodes int
		stage string
	}
	baseNs := map[key]float64{}
	for _, s := range base.Sizes {
		for _, st := range s.Stages {
			baseNs[key{s.NodesTarget, st.Name}] = st.NsPerOp
		}
	}
	var regressions []string
	for _, s := range fresh.Sizes {
		for _, st := range s.Stages {
			b, ok := baseNs[key{s.NodesTarget, st.Name}]
			if !ok {
				fmt.Printf("baseline: no entry for size %d stage %s (new measurement, skipped)\n",
					s.NodesTarget, st.Name)
				continue
			}
			if st.NsPerOp > b*tol && st.NsPerOp-b > 1e6 {
				regressions = append(regressions, fmt.Sprintf(
					"size %d stage %s: %.2f ms vs baseline %.2f ms (%.1fx > %.1fx tolerance)",
					s.NodesTarget, st.Name, st.NsPerOp/1e6, b/1e6, st.NsPerOp/b, tol))
			}
		}
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d stage regression(s) vs %s", len(regressions), path)
	}
	fmt.Printf("baseline check passed: no stage slower than %.1fx of %s\n", tol, path)
	return nil
}
