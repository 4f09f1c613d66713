package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"prophet/internal/core"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/modelgen"
	"prophet/internal/obs"
	"prophet/internal/xmi"
)

// transformW is the paper's cold pipeline on one long-lived Prophet:
// each op takes a fresh XMI document through decode, Check,
// TransformCpp, TransformGo and Estimate (trace and summary collected,
// no trace file). Every model is new to the Prophet, so every estimator
// cache misses; the server and the runner are not used.
type transformW struct {
	refs    *refs
	specs   []modelgen.Params
	order   []int
	heldOut []string // XMI of the setup's warm-up models
	p       *core.Prophet
}

func newTransform(r *refs, seed int64) *transformW {
	t := &transformW{refs: r, specs: transformSpecs(), order: transformOrder(seed)}
	for _, sp := range transformHeldOut() {
		doc, err := genDoc(sp)
		if err != nil {
			panic(err) // fixed parameters; only a broken generator fails here
		}
		t.heldOut = append(t.heldOut, doc)
	}
	return t
}

// genDoc generates a model and renders it as the XMI document an op
// reads. This is input generation: it is never timed.
func genDoc(sp modelgen.Params) (string, error) {
	m, err := modelgen.Generate(sp)
	if err != nil {
		return "", err
	}
	return xmi.EncodeString(m)
}

func (t *transformW) setup() error {
	p := core.New()
	for _, doc := range t.heldOut {
		if _, err := pipeline(p, doc, false); err != nil {
			return err
		}
	}
	t.p = p
	return nil
}

func (t *transformW) teardown() { t.p = nil }

// pipeOut is one op's outputs and the duration of each call it made.
type pipeOut struct {
	nodes      int
	cpp, gosrc string
	makespan   float64
	// Durations of the op and of each public call in it.
	total, decode, check, cppT, goT, estimate time.Duration
	tree                                      *obs.SpanNode // the Estimate call's spans, when traced
}

// pipeline runs one op. When traced, an obs trace root rides the
// Estimate request so the estimator's own stage spans are recorded.
func pipeline(p *core.Prophet, doc string, traced bool) (*pipeOut, error) {
	var o pipeOut
	t0 := time.Now()
	m, err := xmi.DecodeString(doc)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	rep := p.Check(m)
	t2 := time.Now()
	if rep.HasErrors() {
		return nil, fmt.Errorf("check: %d errors", len(rep.Diagnostics))
	}
	o.cpp, err = p.TransformCpp(m)
	t3 := time.Now()
	if err != nil {
		return nil, err
	}
	o.gosrc, err = p.TransformGo(m)
	t4 := time.Now()
	if err != nil {
		return nil, err
	}
	req := core.Request{Model: m, SkipCheck: true}
	var tr *obs.Trace
	var root *obs.TraceSpan
	if traced {
		tr, root = obs.NewTrace("estimate")
		req.Context = obs.ContextWithSpan(context.Background(), root)
	}
	est, err := p.Estimate(req)
	root.End()
	t5 := time.Now()
	if err != nil {
		return nil, err
	}
	if est.Summary == nil {
		return nil, fmt.Errorf("estimate returned no summary")
	}
	o.makespan = est.Makespan
	o.decode, o.check, o.cppT, o.goT, o.estimate = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4)
	o.total = t5.Sub(t0)
	o.nodes = m.Stats().Nodes
	if traced {
		o.tree = tr.Tree().Root
	}
	return &o, nil
}

// fill runs Estimate on transformFill models outside the pool, two at a
// time, so the estimator's caches are full when the measured ops start
// and each measured op evicts one entry. It is neither setup nor
// measured.
func (t *transformW) fill() error {
	specs := transformFillSpecs()
	return parallelFill(len(specs), func(i int) error {
		mdl, err := modelgen.Generate(specs[i])
		if err != nil {
			return err
		}
		if _, err := t.p.Estimate(core.Request{Model: mdl, SkipCheck: true}); err != nil {
			return fmt.Errorf("fill: %w", err)
		}
		return nil
	})
}

func (t *transformW) measure(d time.Duration, traced bool, cal *calibrator) (*measurement, error) {
	f0 := time.Now()
	if err := t.fill(); err != nil {
		return nil, err
	}
	runtime.GC()
	m := &measurement{}
	m.notes = append(m.notes, fmt.Sprintf("filled the estimator caches with %d models in %.1f s", transformFill, time.Since(f0).Seconds()))
	spans := newSpanTally()
	var (
		tracedOps                                  int
		nodes, decode, check, tcpp, tgo, gcpp, ggo float64
		cppBytes, goBytes                          float64
		plain, plainNodes, withTrace, tracedNodes  float64
	)
	var busy time.Duration
	for i := 0; busy < d; i++ {
		cal.tick()
		if i >= len(t.order) {
			m.notes = append(m.notes, fmt.Sprintf("transform pool of %d models exhausted", transformPool))
			break
		}
		idx := t.order[i]
		doc, err := genDoc(t.specs[idx])
		if err != nil {
			return nil, err
		}
		// In a traced run every other op is traced; the untraced ones
		// give the tracing overhead on the same input mix.
		trace := traced && i%2 == 1
		c0 := cpuSeconds()
		o, err := pipeline(t.p, doc, trace)
		m.cpu += cpuSeconds() - c0
		if err != nil {
			m.record(err)
			continue
		}
		busy += o.total
		m.latencies = append(m.latencies, ms(o.total))
		chk := t.check(idx, o)
		m.record(chk)
		if !traced {
			continue
		}
		if !trace {
			plain += ms(o.total)
			plainNodes += float64(o.nodes)
			continue
		}
		withTrace += ms(o.total)
		tracedNodes += float64(o.nodes)
		// The generators alone, called directly: the part of
		// TransformCpp/TransformGo that is not their embedded Check.
		dm, err := xmi.DecodeString(doc)
		if err != nil {
			return nil, err
		}
		g0 := time.Now()
		cpp, err := cppgen.New().Generate(dm)
		g1 := time.Now()
		gosrc, err2 := gogen.New().Generate(dm)
		g2 := time.Now()
		if err == nil {
			err = err2
		}
		if err != nil {
			return nil, err
		}
		if chk == nil && (cpp != o.cpp || gosrc != o.gosrc) {
			m.fail(fmt.Errorf("model %d: direct generator output differs from Transform output", idx))
		}
		tracedOps++
		nodes += float64(o.nodes)
		decode += ms(o.decode)
		check += ms(o.check)
		tcpp += ms(o.cppT)
		tgo += ms(o.goT)
		gcpp += ms(g1.Sub(g0))
		ggo += ms(g2.Sub(g1))
		cppBytes += float64(len(o.cpp))
		goBytes += float64(len(o.gosrc))
		spans.add(o.tree)
		// The calls the benchmark makes: decode is xmi, Check is the
		// checker, each Transform is the checker plus its generator.
		spans.selfMs["xmi"] += ms(o.decode)
		spans.selfMs["checker"] += ms(o.check)
		cg, gg := min(ms(g1.Sub(g0)), ms(o.cppT)), min(ms(g2.Sub(g1)), ms(o.goT))
		spans.selfMs["cppgen"] += cg
		spans.selfMs["gogen"] += gg
		spans.selfMs["checker"] += ms(o.cppT) - cg + ms(o.goT) - gg
		spans.selfMs["unattributed"] += ms(o.total - o.decode - o.check - o.cppT - o.goT - o.estimate)
		// The estimate root is opened just inside the timed Estimate
		// call; the sliver outside it is the estimator's too.
		spans.selfMs["estimator"] += ms(o.estimate) - o.tree.Seconds*1e3
	}
	m.window = busy.Seconds()
	if traced {
		m.layer = map[string]float64{}
		n := float64(tracedOps)
		spans.fill(m.layer, tracedOps)
		m.layer["xmi.decode_ms"] = ratio(decode, n)
		m.layer["xmi.decode_ns_per_node"] = ratio(decode*1e6, nodes)
		m.layer["xmi.nodes_per_op"] = ratio(nodes, n)
		m.layer["checker.check_ms"] = ratio(check, n)
		m.layer["checker.ns_per_node"] = ratio(check*1e6, nodes)
		m.layer["checker.runs_per_op"] = 1 + ratio(tcpp-gcpp+tgo-ggo, check)
		m.layer["cppgen.generate_ms"] = ratio(gcpp, n)
		m.layer["cppgen.output_kb"] = ratio(cppBytes/1024, n)
		m.layer["gogen.generate_ms"] = ratio(ggo, n)
		m.layer["gogen.output_kb"] = ratio(goBytes/1024, n)
		m.layer["tracing_overhead_share"] = overhead(ratio(withTrace, tracedNodes), ratio(plain, plainNodes))
		zeroLayers(m.layer)
	}
	return m, nil
}

// check compares an op's outputs with the pool entry's references.
func (t *transformW) check(idx int, o *pipeOut) error {
	ref := t.refs.Transform[idx]
	switch {
	case o.makespan != ref.Makespan:
		return fmt.Errorf("model %d: makespan %v, interp reference %v", idx, o.makespan, ref.Makespan)
	case digest(o.cpp) != ref.CppSHA256:
		return fmt.Errorf("model %d: C++ output sha256 differs from the reference", idx)
	case digest(o.gosrc) != ref.GoSHA256:
		return fmt.Errorf("model %d: Go output sha256 differs from the reference", idx)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
