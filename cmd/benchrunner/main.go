// Command benchrunner measures the batch-evaluation runtime and the sim
// engine's event hot path, and writes the results to a JSON file
// (BENCH_runner.json by default) so the performance trajectory is
// tracked across PRs: ns/op and allocs/op per benchmark, plus the
// wall-clock speedup of a 64-run Monte Carlo batch at 4 workers vs 1,
// the cost of reusing a prepared model record against preparing one on a
// 10^4-node model, and the cost per event of an engine-mode lowered run
// of a 2k-node forking model.
//
//	go run ./cmd/benchrunner -o BENCH_runner.json
//
// Interpreting the speedup requires the host's core count, which is
// recorded in the document as gomaxprocs: a runner with fewer than four
// cores cannot show a 4-worker speedup no matter how good the fan-out
// is, so there the speedup is written as null.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/conformance"
	"prophet/internal/estimator"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/modelgen"
	"prophet/internal/sim"
	"prophet/internal/uml"
)

// result is one benchmark's measurement.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// EventsPerOp and NsPerEvent split an engine-run benchmark into its
	// amount of work (engine events per op) and the cost per event.
	EventsPerOp int64   `json:"events_per_op,omitempty"`
	NsPerEvent  float64 `json:"ns_per_event,omitempty"`
}

// doc is the BENCH_runner.json schema.
type doc struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	// GOMAXPROCS is read back after the NumCPU configuration call, so
	// the file records what the benchmarks actually ran under; NumCPU
	// records the host's core count so trajectories measured on
	// different machines stay interpretable.
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []result `json:"benchmarks"`
	// MonteCarloSpeedup4 is null when gomaxprocs < 4: four workers on
	// fewer cores measure the core count, not the fan-out.
	MonteCarloSpeedup4 *float64 `json:"montecarlo_speedup_4_workers_vs_1"`
	// SpeedupLowered is the hold_loop_1000 interp ns/op divided by the
	// lowered ns/op: how much faster the flat lowered program evaluates
	// the same single-process model than the tree-walking interpreter.
	SpeedupLowered float64 `json:"speedup_lowered_vs_interp"`
	// SpeedupAnalytic is the sequential 64-run Monte Carlo batch ns/op
	// divided by one mode=analytic solve's ns/op on the same stochastic
	// query-mix model: what the closed-form fast path saves over the
	// simulation batch a mean estimate of comparable confidence needs.
	SpeedupAnalytic float64 `json:"speedup_analytic_vs_montecarlo_64"`
	// RecordReuseShare is the record_reuse_10k ns/op divided by the
	// record_prepare_10k ns/op: what a repeat request on a stored model
	// pays for its program, as a share of checking and compiling.
	RecordReuseShare float64 `json:"record_reuse_share_of_prepare"`
	Note             string  `json:"note"`
}

func measure(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	return result{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// queryMixModel is the stochastic workload shared with the estimator
// benchmarks: 200 weighted cache hits/misses per run.
func queryMixModel() (*uml.Model, error) {
	mb := builder.New("bench-query-mix")
	mb.Global("hitCost", "double").Global("missCost", "double")
	d := mb.Diagram("main")
	d.Initial()
	d.Loop("Queries", "200", "one").Var("q")
	d.Final()
	d.Chain("initial", "Queries", "final")
	one := mb.Diagram("one")
	one.Initial()
	one.Decision("cache")
	one.Action("Hit").Cost("hitCost")
	one.Action("Miss").Cost("missCost")
	one.Merge("done")
	one.Final()
	one.Flow("initial", "cache")
	one.FlowWeighted("cache", "Hit", 0.85)
	one.FlowWeighted("cache", "Miss", 0.15)
	one.Flow("Hit", "done")
	one.Flow("Miss", "done")
	one.Flow("done", "final")
	return mb.Build()
}

// holdLoopModel is the model-driven counterpart of the raw engine bench:
// one process executing a 1000-iteration loop whose body holds for one
// time unit. On the interp backend every iteration walks the tree and
// keys maps by name; on the lowered backend it executes flat ops over
// slot frames (and, single-process, skips the engine entirely).
func holdLoopModel() (*uml.Model, error) {
	mb := builder.New("bench-hold-loop")
	d := mb.Diagram("main")
	d.Initial()
	d.Loop("Holds", "1000", "one").Var("i")
	d.Final()
	d.Chain("initial", "Holds", "final")
	one := mb.Diagram("one")
	one.Initial()
	one.Action("Hold").Cost("1")
	one.Final()
	one.Chain("initial", "Hold", "final")
	return mb.Build()
}

// records measures the estimator's model record on a 10^4-node
// generated model: preparing a fresh record (check and compile), and
// preparing a record that is already prepared, which is what every
// evaluation of a stored model does.
func records() ([]result, error) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 1, Nodes: 10000})
	if err != nil {
		return nil, err
	}
	e := estimator.New()
	prepare := measure("record_prepare_10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.Prepare(estimator.NewRecord(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec := estimator.NewRecord(m)
	if err := e.Prepare(rec); err != nil {
		return nil, err
	}
	reuse := measure("record_reuse_10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.Prepare(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	return []result{prepare, reuse}, nil
}

// engineFork measures the event engine under a model-driven load: one
// lowered, untraced run per op of a 2k-node modelgen model, whose forks
// keep it in engine mode (a process per branch, no direct mode).
func engineFork() (result, error) {
	m, err := modelgen.Generate(modelgen.Params{Seed: 1, Nodes: 2000})
	if err != nil {
		return result{}, err
	}
	ip, err := interp.Compile(m, nil)
	if err != nil {
		return result{}, err
	}
	lp := lower.Lower(ip)
	cfg := interp.Config{Seed: 1, NoTrace: true}
	res, err := lp.Run(cfg)
	if err != nil {
		return result{}, err
	}
	eng, ok := res.Stats.(*sim.Engine)
	if !ok {
		return result{}, fmt.Errorf("engine_fork: model ran in direct mode")
	}
	r := measure("engine_fork_modelgen_2k_lowered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lp.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	r.EventsPerOp = eng.EventsExecuted()
	if r.EventsPerOp > 0 {
		r.NsPerEvent = r.NsPerOp / float64(r.EventsPerOp)
	}
	return r, nil
}

// maxCompileHitShare is the ceiling run enforces on
// record_reuse_share_of_prepare: reusing a prepared record must cost at
// most this share of preparing one (it measures ~1e-6, a sync.Once check
// against checking and compiling 10^4 nodes).
const maxCompileHitShare = 0.05

func run(out string, minAnalyticSpeedup float64) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	m, err := queryMixModel()
	if err != nil {
		return err
	}
	hl, err := holdLoopModel()
	if err != nil {
		return err
	}
	e := estimator.New()
	globals := map[string]float64{"hitCost": 100e-6, "missCost": 10e-3}
	mProg, err := e.Compile(m)
	if err != nil {
		return err
	}
	hlProg, err := e.Compile(hl)
	if err != nil {
		return err
	}

	mc := func(c *estimator.Compiled, g map[string]float64, workers int, backend estimator.Backend) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.MonteCarlo(estimator.Request{
					Compiled: c, Globals: g, Parallel: workers, Backend: backend,
				}, 64); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	holdLoop := func(backend estimator.Backend) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.EstimateCompiledFast(hlProg, estimator.Request{Backend: backend}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	d := doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Note: "montecarlo_64 benches run one 64-seed batch per op on the " +
			"stochastic query-mix model (lowered backend unless suffixed " +
			"_interp); montecarlo_64_stochastic_service_workers_1 runs " +
			"the same batch on conformance.StochasticService(2000), whose " +
			"jobs draw from all four distribution families (8,000 draws " +
			"per run), so its allocs/op shows what draws allocate; " +
			"event_scheduling runs one raw engine with 1000 holds " +
			"per op; engine_fork_modelgen_2k_lowered runs one untraced " +
			"lowered engine-mode run per op of a 2k-node modelgen model " +
			"(seed 1) and reports its engine events per op and ns per " +
			"event; hold_loop_1000 evaluates the same workload as a model " +
			"on each backend. montecarlo speedup is sequential ns/op " +
			"divided by 4-worker ns/op and is bounded by gomaxprocs, so it " +
			"is null when gomaxprocs < 4; " +
			"speedup_lowered_vs_interp is hold_loop interp ns/op divided " +
			"by lowered ns/op; analytic_query_mix runs one mode=analytic " +
			"closed-form solve per op on the query-mix model, and " +
			"speedup_analytic_vs_montecarlo_64 divides the sequential " +
			"64-run MC batch ns/op by it; every batch and solve evaluates a " +
			"record prepared beforehand. record_*_10k prepare the " +
			"estimator's model record of a 10^4-node modelgen model " +
			"(seed 1): a fresh record (check + compile) and one already " +
			"prepared; record_reuse_share_of_prepare is reuse ns/op over " +
			"prepare ns/op.",
	}

	d.Benchmarks = append(d.Benchmarks, measure("event_scheduling_1000_holds", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.New()
			eng.Spawn("p", func(p *sim.Process) {
				for j := 0; j < 1000; j++ {
					p.Hold(1)
				}
			})
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	ef, err := engineFork()
	if err != nil {
		return err
	}
	d.Benchmarks = append(d.Benchmarks, ef)

	hlInterp := measure("hold_loop_1000_interp", holdLoop(estimator.BackendInterp))
	hlLowered := measure("hold_loop_1000_lowered", holdLoop(estimator.BackendLowered))
	d.Benchmarks = append(d.Benchmarks, hlInterp, hlLowered)
	if hlLowered.NsPerOp > 0 {
		d.SpeedupLowered = hlInterp.NsPerOp / hlLowered.NsPerOp
	}

	seq := measure("montecarlo_64_workers_1", mc(mProg, globals, 1, estimator.BackendLowered))
	par := measure("montecarlo_64_workers_4", mc(mProg, globals, 4, estimator.BackendLowered))
	seqInterp := measure("montecarlo_64_workers_1_interp", mc(mProg, globals, 1, estimator.BackendInterp))
	par4Interp := measure("montecarlo_64_workers_4_interp", mc(mProg, globals, 4, estimator.BackendInterp))
	ssProg, err := e.Compile(conformance.StochasticService(2000))
	if err != nil {
		return err
	}
	seqStochastic := measure("montecarlo_64_stochastic_service_workers_1",
		mc(ssProg, map[string]float64{"scale": 1}, 1, estimator.BackendLowered))
	d.Benchmarks = append(d.Benchmarks, seq, par, seqInterp, par4Interp, seqStochastic)
	if par.NsPerOp > 0 && d.GOMAXPROCS >= 4 {
		speedup := seq.NsPerOp / par.NsPerOp
		d.MonteCarloSpeedup4 = &speedup
	}

	analytic := measure("analytic_query_mix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.EstimateCompiledFast(mProg, estimator.Request{
				Globals: globals, Mode: estimator.ModeAnalytic,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	d.Benchmarks = append(d.Benchmarks, analytic)
	if analytic.NsPerOp > 0 {
		d.SpeedupAnalytic = seq.NsPerOp / analytic.NsPerOp
	}

	rc, err := records()
	if err != nil {
		return err
	}
	d.Benchmarks = append(d.Benchmarks, rc...)
	if rc[0].NsPerOp > 0 {
		d.RecordReuseShare = rc[1].NsPerOp / rc[0].NsPerOp
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
	mcSpeedup := "n/a (gomaxprocs < 4)"
	if d.MonteCarloSpeedup4 != nil {
		mcSpeedup = fmt.Sprintf("%.2fx", *d.MonteCarloSpeedup4)
	}
	fmt.Printf("wrote %s (gomaxprocs=%d, num_cpu=%d, 64-run Monte Carlo speedup at 4 workers: %s, lowered vs interp: %.2fx, analytic vs MC-64: %.0fx, record reuse/prepare: %.2g)\n",
		out, d.GOMAXPROCS, d.NumCPU, mcSpeedup, d.SpeedupLowered, d.SpeedupAnalytic, d.RecordReuseShare)
	if minAnalyticSpeedup > 0 && d.SpeedupAnalytic < minAnalyticSpeedup {
		return fmt.Errorf("analytic speedup %.1fx is below the %.0fx floor", d.SpeedupAnalytic, minAnalyticSpeedup)
	}
	if d.RecordReuseShare > maxCompileHitShare {
		return fmt.Errorf("reusing a prepared record costs %.3g of preparing one, above the %.3g ceiling", d.RecordReuseShare, maxCompileHitShare)
	}
	return nil
}

func main() {
	out := flag.String("o", "BENCH_runner.json", "output JSON path")
	minAnalytic := flag.Float64("min-analytic-speedup", 0,
		"fail unless speedup_analytic_vs_montecarlo_64 reaches this factor (0 disables)")
	flag.Parse()
	if err := run(*out, *minAnalytic); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}
