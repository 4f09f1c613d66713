// Command prophet runs the end-to-end Performance Prophet pipeline: load a
// performance model, check it, evaluate it by simulation on the machine
// model built from the given system parameters, and report the prediction
// (optionally writing the trace file and drawing an ASCII Gantt chart).
//
// Usage:
//
//	prophet -model sample.xml -nodes 2 -ppn 4 -processes 8 -threads 1 \
//	        -set N=1000 -set M=10 -set c=1e-9 -trace run.trace -gantt
//
//	prophet -sample kernel6 -set N=1000 -set M=10 -set c=1e-9
//
//	prophet -model app.xml -sweep 1,2,4,8,16      # scalability sweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"prophet/internal/core"
	"prophet/internal/estimator"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/samples"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// setFlags collects repeated -set K=V assignments.
type setFlags map[string]float64

func (s setFlags) String() string { return fmt.Sprint(map[string]float64(s)) }

func (s setFlags) Set(v string) error {
	kv := strings.SplitN(v, "=", 2)
	if len(kv) != 2 {
		return fmt.Errorf("-set expects K=V, got %q", v)
	}
	f, err := strconv.ParseFloat(kv[1], 64)
	if err != nil {
		return fmt.Errorf("-set %s: %v", v, err)
	}
	s[strings.TrimSpace(kv[0])] = f
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prophet:", err)
		os.Exit(1)
	}
}

// metricsDoc is the JSON document written by -metrics: pipeline-stage
// spans, the metrics registry snapshot, and (for plain estimates) the
// simulation telemetry time series.
type metricsDoc struct {
	Model     string               `json:"model"`
	Makespan  float64              `json:"makespan,omitempty"`
	Spans     []obs.Span           `json:"spans"`
	Metrics   obs.Snapshot         `json:"metrics"`
	Telemetry *estimator.Telemetry `json:"telemetry,omitempty"`
}

// writeSpanTree writes a trace's span tree as indented JSON, the format
// traceview -spans (and prophetd's GET /v1/traces/{id}) uses.
func writeSpanTree(path string, tt obs.TraceTree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tt); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMetricsDoc(path string, doc metricsDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("prophet", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model XML file")
	sampleName := fs.String("sample", "", "built-in model (sample|kernel6|kernel6-detailed|pipeline)")
	nodes := fs.Int("nodes", 1, "number of computational nodes")
	ppn := fs.Int("ppn", 1, "processors per node")
	processes := fs.Int("processes", 1, "number of processes")
	threads := fs.Int("threads", 1, "threads per process")
	tracePath := fs.String("trace", "", "write trace file (TF) here")
	chromePath := fs.String("chrome", "", "write Chrome trace-event JSON here (chrome://tracing)")
	gantt := fs.Bool("gantt", false, "render an ASCII Gantt chart")
	width := fs.Int("width", 72, "gantt width in buckets")
	sweep := fs.String("sweep", "", "comma-separated process counts for a scalability sweep")
	policy := fs.String("policy", "fcfs", "processor contention policy: fcfs or ps")
	backend := fs.String("backend", "lowered", "simulation backend: lowered, interp or auto")
	mode := fs.String("mode", "simulate", "evaluation mode: simulate, analytic (closed-form solver) or auto")
	sensitivity := fs.String("sensitivity", "", "comma-separated globals for a +-5% sensitivity analysis")
	montecarlo := fs.Int("montecarlo", 0, "run N seeds and report the makespan distribution (stochastic models)")
	parallel := fs.Int("parallel", 0, "worker pool size for batch evaluations: sweeps, -sensitivity, -montecarlo, -versus (0 = GOMAXPROCS)")
	versus := fs.String("versus", "", "second model XML: compare both designs across -sweep process counts")
	defNet := machine.DefaultNet()
	latIntra := fs.Float64("lat-intra", defNet.LatencyIntra, "intra-node message latency (s)")
	latInter := fs.Float64("lat-inter", defNet.LatencyInter, "inter-node message latency (s)")
	bwIntra := fs.Float64("bw-intra", defNet.BandwidthIntra, "intra-node bandwidth (bytes/s)")
	bwInter := fs.Float64("bw-inter", defNet.BandwidthInter, "inter-node bandwidth (bytes/s)")
	metricsPath := fs.String("metrics", "", "write an observability JSON dump (spans, metrics, telemetry) here")
	spansPath := fs.String("spans", "", "record the run's span tree and write it as JSON here (render with traceview -spans)")
	sampleInterval := fs.Float64("sample-interval", 0, "simulated-time spacing of telemetry samples (0 = every time change)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile here")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	globals := setFlags{}
	fs.Var(globals, "set", "set a global model variable, K=V (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers its handlers on the default mux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "prophet: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// When -metrics is requested, every stage of the run records spans
	// into one shared recorder and metrics into one shared registry.
	var spans *obs.SpanRecorder
	var registry *obs.Registry
	if *metricsPath != "" {
		spans = obs.NewSpanRecorder()
		registry = obs.NewRegistry()
	}

	parseDone := spans.Start("parse")
	m, err := resolveModel(*modelPath, *sampleName)
	parseDone()
	if err != nil {
		return err
	}

	// The estimate's makespan and telemetry are filled in by whichever
	// mode runs below; the deferred writer sees their final values.
	var makespan float64
	var telemetry *estimator.Telemetry
	if *metricsPath != "" {
		defer func() {
			if err != nil {
				return
			}
			err = writeMetricsDoc(*metricsPath, metricsDoc{
				Model:     m.Name(),
				Makespan:  makespan,
				Spans:     spans.Spans(),
				Metrics:   registry.Snapshot(),
				Telemetry: telemetry,
			})
			if err == nil {
				fmt.Printf("metrics: %s\n", *metricsPath)
			}
		}()
	}

	p := core.New()
	params := machine.SystemParams{
		Nodes: *nodes, ProcessorsPerNode: *ppn, Processes: *processes, Threads: *threads,
	}
	net := machine.NetParams{
		LatencyIntra: *latIntra, LatencyInter: *latInter,
		BandwidthIntra: *bwIntra, BandwidthInter: *bwInter,
	}
	req := core.Request{Model: m, Params: params, Globals: globals, TracePath: *tracePath, Net: &net, Parallel: *parallel}
	if *metricsPath != "" {
		req.Telemetry = true
		req.SampleInterval = *sampleInterval
		req.Spans = spans
		req.Metrics = registry
	}
	switch *policy {
	case "fcfs":
	case "ps":
		req.Policy = machine.PolicyPS
	default:
		return fmt.Errorf("unknown policy %q (fcfs or ps)", *policy)
	}
	if req.Backend, err = estimator.ParseBackend(*backend); err != nil {
		return err
	}
	if req.Mode, err = estimator.ParseMode(*mode); err != nil {
		return err
	}

	// -spans records the same hierarchical trace a prophetd request gets:
	// the root span rides the request context, every pipeline stage (and
	// each batch job) attaches its child, and the tree is written at exit.
	if *spansPath != "" {
		tr, root := obs.NewTrace("prophet")
		root.Annotate("model", m.Name())
		req.Context = obs.ContextWithSpan(context.Background(), root)
		defer func() {
			if err != nil {
				return
			}
			root.End()
			err = writeSpanTree(*spansPath, tr.Tree())
			if err == nil {
				fmt.Printf("spans: %s\n", *spansPath)
			}
		}()
	}

	if *versus != "" {
		other, err := core.New().LoadModel(*versus)
		if err != nil {
			return err
		}
		counts := []int{1, 2, 4, 8, 16, 32}
		if *sweep != "" {
			if counts, err = parseCounts(*sweep); err != nil {
				return err
			}
		}
		cmp, err := estimator.New().CompareModels(estimator.NewRecord(m), estimator.NewRecord(other), estimator.Request{
			Params: params, Globals: globals, Net: &net, Policy: req.Policy, Parallel: *parallel,
			Context: req.Context,
		}, counts)
		if err != nil {
			return err
		}
		fmt.Printf("A = %s, B = %s\n", cmp.NameA, cmp.NameB)
		fmt.Printf("%10s %14s %14s %8s\n", "processes", "makespan A", "makespan B", "winner")
		for _, pt := range cmp.Points {
			fmt.Printf("%10d %14.6g %14.6g %8s\n", pt.Processes, pt.MakespanA, pt.MakespanB, pt.Winner)
		}
		if len(cmp.Crossovers) > 0 {
			fmt.Printf("winner flips at process count(s): %v\n", cmp.Crossovers)
		}
		return nil
	}

	if *montecarlo > 0 {
		res, err := p.MonteCarlo(req, *montecarlo)
		if err != nil {
			return err
		}
		fmt.Printf("monte carlo over %d seed(s):\n", res.Runs)
		fmt.Printf("  mean makespan: %.6g\n", res.Mean)
		fmt.Printf("  std deviation: %.6g\n", res.Std)
		fmt.Printf("  min / max:     %.6g / %.6g\n", res.Min, res.Max)
		return nil
	}

	if *sensitivity != "" {
		names := strings.Split(*sensitivity, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		res, err := p.Sensitivity(req, names, 0.05)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %14s %14s %12s\n", "variable", "base", "makespan", "elasticity")
		for _, pt := range res.Points {
			fmt.Printf("%-12s %14.6g %14.6g %12.3f\n", pt.Variable, pt.Base, pt.BaseMakespan, pt.Elasticity)
		}
		for _, sk := range res.Skipped {
			fmt.Printf("skipped: %s\n", sk)
		}
		return nil
	}

	if *sweep != "" {
		counts, err := parseCounts(*sweep)
		if err != nil {
			return err
		}
		pts, err := p.SweepProcesses(req, counts)
		if err != nil {
			return err
		}
		fmt.Printf("%10s %8s %14s %10s %10s\n", "processes", "nodes", "makespan", "speedup", "eff")
		for _, pt := range pts {
			fmt.Printf("%10d %8d %14.6g %10.3f %10.3f\n",
				pt.Processes, pt.Nodes, pt.Makespan, pt.Speedup, pt.Efficiency)
		}
		return nil
	}

	est, err := p.Estimate(req)
	if err != nil {
		return err
	}
	makespan = est.Makespan
	telemetry = est.Telemetry
	fmt.Printf("model:       %s\n", m.Name())
	fmt.Printf("system:      %d node(s) x %d processor(s), %d process(es), %d thread(s)\n",
		params.Nodes, params.ProcessorsPerNode, params.Processes, params.Threads)
	fmt.Printf("predicted execution time: %.6g\n", est.Makespan)
	if est.Analytic {
		// The closed-form solver produced the answer: there is no trace,
		// summary, or utilization to report, but the variance is exact.
		fmt.Printf("mode:        analytic (closed-form solver, no simulation run)\n")
		if est.Variance > 0 {
			fmt.Printf("makespan std deviation: %.6g\n", math.Sqrt(est.Variance))
		}
		return nil
	}
	fmt.Println()
	fmt.Print(est.Summary.Report())
	bd := estimator.BreakdownOf(m, est.Summary)
	if bd.Compute+bd.Communication > 0 {
		fmt.Printf("compute: %.6g, communication: %.6g (%.1f%%)\n",
			bd.Compute, bd.Communication, bd.CommunicationFraction()*100)
	}
	for n, u := range est.CPUUtilization {
		fmt.Printf("node %d cpu utilization: %.1f%%\n", n, u*100)
	}
	if *tracePath != "" {
		fmt.Printf("trace file: %s (%d events)\n", *tracePath, len(est.Trace.Events))
	}
	if *chromePath != "" {
		if err := trace.SaveChrome(*chromePath, est.Trace); err != nil {
			return err
		}
		fmt.Printf("chrome trace: %s\n", *chromePath)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(trace.Gantt(est.Trace, *width))
	}
	return nil
}

func resolveModel(path, sample string) (*uml.Model, error) {
	switch {
	case path != "" && sample != "":
		return nil, fmt.Errorf("-model and -sample are mutually exclusive")
	case path != "":
		return core.New().LoadModel(path)
	case sample == "sample":
		return samples.Sample(), nil
	case sample == "kernel6":
		return samples.Kernel6(), nil
	case sample == "kernel6-detailed":
		return samples.Kernel6Detailed(), nil
	case sample == "pipeline":
		return samples.Pipeline(4), nil
	case sample != "":
		return nil, fmt.Errorf("unknown sample %q", sample)
	}
	return nil, fmt.Errorf("need -model <file> or -sample <name>")
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad process count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
