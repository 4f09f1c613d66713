// Benchmark harness: one benchmark per experiment of DESIGN.md's
// experiment index. The paper is a methodology paper whose "evaluation" is
// its worked figures, so the quantitative benches here measure (a) the
// cost of every pipeline stage the figures describe — transformation
// (FIG5), traversal (FIG6), persistence, checking — and (b) the
// simulation-side experiments (EXTRA-SIM / EXTRA-SCALE), plus the
// ablations called out in DESIGN.md Section 6.
//
// Run with: go test -bench=. -benchmem
package prophet_test

import (
	"fmt"
	"strings"
	"testing"

	"prophet/internal/checker"
	"prophet/internal/cppgen"
	"prophet/internal/dot"
	"prophet/internal/estimator"
	"prophet/internal/expr"
	"prophet/internal/gogen"
	"prophet/internal/interp"
	"prophet/internal/lfk"
	"prophet/internal/machine"
	"prophet/internal/mdgen"
	"prophet/internal/obs"
	"prophet/internal/samples"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/traverse"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// --- FIG5: the transformation algorithm, scaling with model size --------

func BenchmarkFig5Transform(b *testing.B) {
	for _, size := range []struct{ d, a int }{{1, 10}, {2, 50}, {4, 250}, {8, 1250}} {
		m := samples.Synthetic(size.d, size.a)
		elements := size.d * size.a
		gen := cppgen.New()
		b.Run(fmt.Sprintf("elements-%d", elements), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8Pipeline measures the full Teuta-side pipeline of the
// sample model: XML decode -> model check -> C++ generation.
func BenchmarkFig8Pipeline(b *testing.B) {
	xml, err := xmi.EncodeString(samples.Sample())
	if err != nil {
		b.Fatal(err)
	}
	chk := checker.New()
	gen := cppgen.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := xmi.DecodeString(xml)
		if err != nil {
			b.Fatal(err)
		}
		if rep := chk.Check(m); rep.HasErrors() {
			b.Fatal("sample model failed checking")
		}
		if _, err := gen.Generate(m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- FIG6 ablation: recursive vs explicit-stack navigator ---------------

func BenchmarkNavigator(b *testing.B) {
	m := samples.Synthetic(8, 500)
	trav := traverse.NewTraverser()
	count := func(nav traverse.Navigator) int {
		n := 0
		h := traverse.FuncHandler(func(traverse.Event) error { n++; return nil })
		if err := trav.Traverse(m, nav, h); err != nil {
			b.Fatal(err)
		}
		return n
	}
	b.Run("recursive", func(b *testing.B) {
		b.ReportAllocs()
		nav := traverse.NewRecursiveNavigator()
		for i := 0; i < b.N; i++ {
			count(nav)
		}
	})
	b.Run("stack", func(b *testing.B) {
		b.ReportAllocs()
		nav := traverse.NewStackNavigator()
		for i := 0; i < b.N; i++ {
			count(nav)
		}
	})
}

// --- Ablation: by-name vs slot-resolved closures for cost functions ----

func BenchmarkExpr(b *testing.B) {
	src := "M * (N-1) * N / 2 * c + sqrt(P) / (1 + pid)"
	env := expr.NewMapEnv()
	env.Set("M", 10)
	env.Set("N", 1000)
	env.Set("c", 1e-9)
	env.Set("P", 16)
	env.Set("pid", 3)
	full := expr.Chain{env, expr.Builtins}
	node := expr.MustParse(src)
	compiled := expr.Compile(node)
	folded := expr.Compile(expr.Fold(node))
	// The lowered backend's form: every variable in a global slot, the
	// sqrt call through the fallback.
	slots := map[string]int{"M": 0, "N": 1, "c": 2, "P": 3, "pid": 4}
	slotted := compiled.Resolve(func(name string) expr.SlotRule {
		if i, ok := slots[name]; ok {
			return expr.SlotRule{Kind: expr.SlotGlobal, Global: i}
		}
		return expr.SlotRule{Kind: expr.SlotDynamic}
	})
	frame := &expr.SlotEnv{Globals: []float64{10, 1000, 1e-9, 16, 3}, Fallback: expr.Builtins}
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Eval(full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled-folded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := folded.Eval(full); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("slotted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slotted.Eval(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse+eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := expr.Eval(src, full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXTRA-SIM: simulation engine throughput -----------------------------

func BenchmarkSim(b *testing.B) {
	for _, procs := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("hold-procs-%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			holdsPer := 100
			for i := 0; i < b.N; i++ {
				e := sim.New()
				for p := 0; p < procs; p++ {
					e.Spawn(fmt.Sprint(p), func(pr *sim.Process) {
						for h := 0; h < holdsPer; h++ {
							pr.Hold(1)
						}
					})
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(procs*holdsPer), "events/op")
		})
	}
	b.Run("facility-contention", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			f := e.NewFacility("cpu", 2)
			for p := 0; p < 20; p++ {
				e.Spawn(fmt.Sprint(p), func(pr *sim.Process) {
					for j := 0; j < 10; j++ {
						f.Use(pr, 1)
					}
				})
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mailbox-pingpong", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			a, c := e.NewMailbox("a"), e.NewMailbox("b")
			const rounds = 100
			e.Spawn("ping", func(p *sim.Process) {
				for r := 0; r < rounds; r++ {
					c.Send(r)
					a.Receive(p)
				}
			})
			e.Spawn("pong", func(p *sim.Process) {
				for r := 0; r < rounds; r++ {
					c.Receive(p)
					a.Send(r)
				}
			})
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXTRA-SIM: estimator end-to-end across system sizes ----------------

func BenchmarkEstimator(b *testing.B) {
	est := estimator.New()
	pr, err := est.Compile(samples.Kernel6Detailed())
	if err != nil {
		b.Fatal(err)
	}
	globals := map[string]float64{"N": 40, "M": 2, "c": 1e-6}
	for _, procs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("kernel6-detailed-procs-%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			req := estimator.Request{
				Params:  machine.SystemParams{Nodes: (procs + 3) / 4, ProcessorsPerNode: 4, Processes: procs, Threads: 1},
				Globals: globals,
			}
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateCompiled(pr, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sample-model", func(b *testing.B) {
		b.ReportAllocs()
		spr, err := est.Compile(samples.Sample())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateCompiled(spr, estimator.Request{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEstimateWithMetrics measures the cost of observability around
// one compiled estimate. "baseline" runs with no observer installed —
// compare it against BenchmarkEstimator (pre-instrumentation cost is the
// same code path) to see that the disabled hooks stay within noise (<5%).
// "metrics" and "telemetry" show the enabled price.
func BenchmarkEstimateWithMetrics(b *testing.B) {
	est := estimator.New()
	pr, err := est.Compile(samples.Kernel6Detailed())
	if err != nil {
		b.Fatal(err)
	}
	base := estimator.Request{
		Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 4, Processes: 4, Threads: 1},
		Globals: map[string]float64{"N": 40, "M": 2, "c": 1e-6},
	}
	b.Run("baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateCompiled(pr, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		b.ReportAllocs()
		req := base
		req.Metrics = obs.NewRegistry()
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateCompiled(pr, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("telemetry", func(b *testing.B) {
		b.ReportAllocs()
		req := base
		req.Telemetry = true
		for i := 0; i < b.N; i++ {
			if _, err := est.EstimateCompiled(pr, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- EXTRA-SCALE: persistence and checking throughput -------------------

func BenchmarkXMI(b *testing.B) {
	m := samples.Synthetic(4, 250)
	xml, err := xmi.EncodeString(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmi.EncodeString(m); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(xml)))
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmi.DecodeString(xml); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(xml)))
	})
}

func BenchmarkChecker(b *testing.B) {
	for _, size := range []struct{ d, a int }{{1, 50}, {4, 250}} {
		m := samples.Synthetic(size.d, size.a)
		chk := checker.New()
		b.Run(fmt.Sprintf("elements-%d", size.d*size.a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// CheckCounted walks every time; Check would answer
				// from the model's memo after the first call.
				if rep, _ := chk.CheckCounted(m); rep.HasErrors() {
					b.Fatal("synthetic model failed checking")
				}
			}
		})
	}
}

// --- Alternative representations (FIG6 extension point) -----------------

func BenchmarkContentHandlers(b *testing.B) {
	m := samples.Sample()
	b.Run("cpp", func(b *testing.B) {
		gen := cppgen.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dot.Render(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("go", func(b *testing.B) {
		gen := gogen.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("markdown", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := mdgen.Render(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- FIG3 / EXTRA-PRED: the real kernel 6 vs its simulated model ---------

func BenchmarkFig3Kernel6(b *testing.B) {
	k6, _ := lfk.ByID(6)
	const n, m = 200, 2
	b.Run("real-kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = k6.Run(n, m)
		}
	})
	b.Run("model-eval-collapsed", func(b *testing.B) {
		b.ReportAllocs()
		pr, err := interp.Compile(samples.Kernel6(), nil)
		if err != nil {
			b.Fatal(err)
		}
		cfg := interp.Config{Globals: map[string]float64{"N": n, "M": m, "c": 1e-8}}
		for i := 0; i < b.N; i++ {
			if _, err := pr.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Trace machinery ------------------------------------------------------

func BenchmarkTrace(b *testing.B) {
	tr := &trace.Trace{Model: "bench"}
	for i := 0; i < 5000; i++ {
		t := float64(i)
		tr.Append(trace.Event{T: t, PID: i % 8, Kind: trace.Enter, Elem: "e", Name: "E"})
		tr.Append(trace.Event{T: t + 0.5, PID: i % 8, Kind: trace.Leave, Elem: "e", Name: "E"})
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			if err := trace.Write(&sb, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	var sb strings.Builder
	trace.Write(&sb, tr)
	text := sb.String()
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			if _, err := trace.Read(strings.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("summarize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Summarize(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gantt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = trace.Gantt(tr, 80)
		}
	})
}

// --- Ablation: FCFS vs processor-sharing contention ----------------------

// BenchmarkContention compares the two processor-contention disciplines of
// the machine model on an oversubscribed node (8 processes, 2 processors).
func BenchmarkContention(b *testing.B) {
	est := estimator.New()
	pr, err := est.Compile(samples.Kernel6())
	if err != nil {
		b.Fatal(err)
	}
	base := estimator.Request{
		Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 8, Threads: 1},
		Globals: map[string]float64{"N": 100, "M": 2, "c": 1e-6},
	}
	for _, pol := range []machine.Policy{machine.PolicyFCFS, machine.PolicyPS} {
		req := base
		req.Policy = pol
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := est.EstimateCompiled(pr, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: process-oriented vs callback-chain event handling --------

// BenchmarkSimStyle compares the coroutine-backed process model (Hold in a
// loop) against pure event callbacks (After chains) for the same event
// count. A holding process runs the event loop itself, so a lone process
// that is its own next event pays no coroutine switch: what remains of
// the process abstraction's cost is the bookkeeping around each Hold. A
// switch to another process costs two coroutine switches, through Run's
// loop (BenchmarkHandoff in internal/sim).
func BenchmarkSimStyle(b *testing.B) {
	const events = 1000
	b.Run("process-hold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			e.Spawn("p", func(p *sim.Process) {
				for j := 0; j < events; j++ {
					p.Hold(1)
				}
			})
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("callback-chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := sim.New()
			remaining := events
			var step func()
			step = func() {
				remaining--
				if remaining > 0 {
					e.After(1, step)
				}
			}
			e.After(1, step)
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: string emission strategy in the generator ----------------

// BenchmarkEmitStrategy documents why the generator uses strings.Builder:
// naive string concatenation is quadratic in the number of emitted lines.
func BenchmarkEmitStrategy(b *testing.B) {
	const lines = 2000
	b.Run("concat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := ""
			for l := 0; l < lines; l++ {
				out += "    a1.execute(uid, pid, tid, FA1());\n"
			}
			_ = out
		}
	})
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			for l := 0; l < lines; l++ {
				sb.WriteString("    a1.execute(uid, pid, tid, FA1());\n")
			}
			_ = sb.String()
		}
	})
}

// --- Model construction and cloning --------------------------------------

func BenchmarkModel(b *testing.B) {
	b.Run("build-synthetic-1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = samples.Synthetic(4, 250)
		}
	})
	m := samples.Synthetic(4, 250)
	b.Run("clone-1000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = uml.Clone(m)
		}
	})
}
