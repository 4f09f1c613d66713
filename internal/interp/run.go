package interp

import (
	"context"
	"fmt"
	"strconv"

	"prophet/internal/expr"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/profile"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// Run simulates the program under the given configuration and returns the
// trace and summary metrics. It is the "evaluates it by simulation" step
// of the paper's abstract.
func (pr *Program) Run(cfg Config) (*Result, error) {
	sp := cfg.Params
	if sp == (machine.SystemParams{}) {
		sp = machine.DefaultParams()
	}
	net := machine.DefaultNet()
	if cfg.Net != nil {
		net = *cfg.Net
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}

	eng := sim.New()
	if cfg.Observer != nil {
		eng.SetObserver(cfg.Observer, cfg.SampleInterval)
	}
	if ctx := cfg.Context; ctx != nil {
		// Cooperative cancellation: refuse to start on an already-done
		// context, then watch it for the duration of the run. The watch
		// interrupts the engine, which checks between simulation events,
		// so the run unwinds at event granularity. The watch is always
		// stopped before Run returns — no callback outlives the call.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("interp: %w", context.Cause(ctx))
		}
		defer eng.WatchContext(ctx)()
	}
	mach, err := machine.NewWithPolicy(eng, sp, net, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}

	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rs := &runState{
		pr:       pr,
		eng:      eng,
		mach:     mach,
		sp:       sp.Env(),
		globals:  map[string]float64{},
		trace:    &trace.Trace{Model: pr.model.Name()},
		maxSteps: maxSteps,
		crits:    map[critKey]*sim.Facility{},
		rng:      sim.NewStream(seed),
	}
	if !cfg.NoTrace {
		rs.rec = new(trace.Recorder)
	}
	rs.trace.SetMeta("nodes", fmt.Sprint(sp.Nodes))
	rs.trace.SetMeta("processors", fmt.Sprint(sp.ProcessorsPerNode))
	rs.trace.SetMeta("processes", fmt.Sprint(sp.Processes))
	rs.trace.SetMeta("threads", fmt.Sprint(sp.Threads))

	// Initialize globals: declared initializers first (in declaration
	// order, able to reference earlier globals and system parameters),
	// then config overrides.
	for _, v := range pr.model.VariablesIn(uml.ScopeGlobal) {
		rs.globals[v.Name] = 0
		if init, ok := pr.inits[v.Name]; ok {
			val, err := init.Eval(rs.envFor(map[string]float64{}))
			if err != nil {
				return nil, fmt.Errorf("interp: initialize %s: %w", v.Name, err)
			}
			rs.globals[v.Name] = val
		}
	}
	for k, v := range cfg.Globals {
		rs.globals[k] = v
	}

	main := pr.model.Main()
	if main == nil {
		return nil, fmt.Errorf("interp: model %q has no main diagram", pr.model.Name())
	}

	for pid := 0; pid < sp.Processes; pid++ {
		pid := pid
		eng.Spawn(fmt.Sprintf("p%d", pid), func(p *sim.Process) {
			fc := rs.newFlowCtx(p, pid, 0)
			if err := fc.runDiagram(main); err != nil {
				// Fail, not panic: the engine wraps this as a typed
				// *sim.ProcessError, keeping the flow error's chain
				// intact for errors.Is/As. True panics still surface as
				// "process panicked".
				p.Fail(err)
			}
			// Program completion = when the last process finishes; late
			// in-flight message deliveries do not extend the makespan.
			if now := eng.Now(); now > rs.finished {
				rs.finished = now
			}
		})
	}

	// When the request carries a trace (obs.StartSpan no-ops otherwise),
	// the engine run gets its own span under the estimator's "simulate"
	// stage, annotated with the work the simulation actually did — the
	// deepest level of the request's span tree.
	_, span := obs.StartSpan(cfg.Context, "sim")
	annotate := func(err error) {
		// The recorded events become the trace, or are dropped with a
		// failed run, inside the span, which pays for recording.
		switch {
		case rs.rec == nil:
		case err != nil:
			rs.rec.Discard()
		default:
			rs.rec.Finish(rs.trace)
		}
		span.Annotate("events", strconv.FormatInt(eng.EventsExecuted(), 10))
		span.Annotate("sim_time", strconv.FormatFloat(eng.Now(), 'g', -1, 64))
		span.Annotate("processes", strconv.Itoa(sp.Processes))
		span.Annotate("backend", "interp")
		span.End()
	}
	if cfg.RunLimit > 0 {
		if _, err := eng.RunUntil(cfg.RunLimit); err != nil {
			annotate(err)
			return nil, fmt.Errorf("interp: %w", err)
		}
	} else if _, err := eng.Run(); err != nil {
		annotate(err)
		return nil, fmt.Errorf("interp: %w", err)
	}
	annotate(nil)

	res := &Result{
		Trace:    rs.trace,
		Makespan: rs.finished,
		Globals:  rs.globals,
		Stats:    eng,
	}
	for n := 0; n < sp.Nodes; n++ {
		res.CPUUtilization = append(res.CPUUtilization, mach.CPUUtilization(n))
	}
	return res, nil
}

// runState is the state shared by all processes of one run.
type runState struct {
	pr       *Program
	eng      *sim.Engine
	mach     *machine.Machine
	sp       map[string]float64
	globals  map[string]float64
	trace    *trace.Trace
	uid      int
	maxSteps int
	// crits holds the mutual-exclusion facility of each omp_critical
	// element, one per (process, element): a critical section serializes
	// the threads of its process but is independent across processes.
	crits map[critKey]*sim.Facility
	// rng drives weighted-branch selection, seeded from Config.Seed.
	rng *sim.Stream
	// rec collects the run's events until it ends; nil for makespan-only
	// runs, which skip trace collection.
	rec *trace.Recorder
	// finished records the time the last process completed.
	finished float64
}

// critical returns (creating on first use) the 1-server facility guarding
// an omp_critical element within one process.
func (rs *runState) critical(pid int, elemID string) *sim.Facility {
	key := critKey{pid, elemID}
	if f, ok := rs.crits[key]; ok {
		return f
	}
	f := rs.eng.NewFacility("critical:"+strconv.Itoa(pid)+"/"+elemID, 1)
	rs.crits[key] = f
	return f
}

// critKey identifies one omp_critical element within one process.
type critKey struct {
	pid int
	id  string
}

// envFor layers a locals frame over globals, system parameters and the
// model's cost-function library.
func (rs *runState) envFor(locals map[string]float64) expr.Env {
	vars := &varsEnv{locals: locals, globals: rs.globals, sp: rs.sp}
	return rs.pr.lib.Bind(vars)
}

// varsEnv resolves variables: locals (incl. loop vars and pid/tid/uid)
// shadow globals shadow system parameters.
type varsEnv struct {
	locals  map[string]float64
	globals map[string]float64
	sp      map[string]float64
}

func (v *varsEnv) Var(name string) (float64, bool) {
	if val, ok := v.locals[name]; ok {
		return val, true
	}
	if val, ok := v.globals[name]; ok {
		return val, true
	}
	val, ok := v.sp[name]
	return val, ok
}

func (v *varsEnv) Func(string) (expr.Func, bool) { return nil, false }

// flowCtx is the per-(process, thread) execution context.
type flowCtx struct {
	rs     *runState
	p      *sim.Process
	pid    int
	tid    int
	locals map[string]float64
	env    expr.Env
	steps  int
}

func (rs *runState) newFlowCtx(p *sim.Process, pid, tid int) *flowCtx {
	fc := &flowCtx{rs: rs, p: p, pid: pid, tid: tid, locals: map[string]float64{}}
	fc.locals["pid"] = float64(pid)
	fc.locals["tid"] = float64(tid)
	fc.locals["uid"] = 0
	for _, v := range rs.pr.model.VariablesIn(uml.ScopeLocal) {
		fc.locals[v.Name] = 0
		if init, ok := rs.pr.inits[v.Name]; ok {
			val, err := init.Eval(rs.envFor(fc.locals))
			if err == nil {
				fc.locals[v.Name] = val
			}
		}
	}
	fc.env = rs.envFor(fc.locals)
	return fc
}

// child clones the context for a forked branch or parallel-region thread.
func (fc *flowCtx) child(tid int) *flowCtx {
	locals := make(map[string]float64, len(fc.locals))
	for k, v := range fc.locals {
		locals[k] = v
	}
	nc := &flowCtx{rs: fc.rs, pid: fc.pid, tid: tid, locals: locals}
	nc.locals["tid"] = float64(tid)
	nc.env = fc.rs.envFor(locals)
	return nc
}

// assign writes a variable: globals if declared global, else the locals
// frame (mirroring C++ scoping of the generated program).
func (fc *flowCtx) assign(name string, val float64) {
	if _, ok := fc.rs.globals[name]; ok {
		fc.rs.globals[name] = val
		return
	}
	fc.locals[name] = val
}

// eval evaluates a compiled expression in this context.
func (fc *flowCtx) eval(c *expr.Compiled) (float64, error) {
	return c.Eval(fc.env)
}

// costValue resolves an element's cost: a deterministic expression
// evaluation, or — for a distribution-literal cost — one draw from the
// run's seed stream. ok is false when the element carries no cost.
func (fc *flowCtx) costValue(id string) (v float64, ok bool, err error) {
	if d, has := fc.rs.pr.distCosts[id]; has {
		v, err = d.Sample(fc.env, fc.rs.rng)
		return v, true, err
	}
	if c, has := fc.rs.pr.costs[id]; has {
		v, err = fc.eval(c)
		return v, true, err
	}
	return 0, false, nil
}

// nextUID allocates the unique execution id passed as the uid parameter of
// execute().
func (fc *flowCtx) nextUID() int {
	fc.rs.uid++
	fc.locals["uid"] = float64(fc.rs.uid)
	return fc.rs.uid
}

func (fc *flowCtx) emit(kind trace.Kind, n uml.Node) {
	if fc.rs.rec == nil {
		return
	}
	fc.rs.rec.Record(trace.Event{
		T: fc.rs.eng.Now(), PID: fc.pid, TID: fc.tid,
		Kind: kind, Elem: n.ID(), Name: n.Name(),
	})
}

// step counts an element execution against the runaway guard.
func (fc *flowCtx) step(n uml.Node) error {
	fc.steps++
	if fc.steps > fc.rs.maxSteps {
		return fmt.Errorf("interp: process %d exceeded %d element executions at %q (unbounded loop?)",
			fc.pid, fc.rs.maxSteps, n.Name())
	}
	return nil
}

// runDiagram executes a diagram from its initial node.
func (fc *flowCtx) runDiagram(d *uml.Diagram) error {
	ini := d.Initial()
	if ini == nil {
		if len(d.Nodes()) == 0 {
			return nil
		}
		return fmt.Errorf("interp: diagram %q has no initial node", d.Name())
	}
	next, err := fc.successor(d, ini)
	if err != nil {
		return err
	}
	return fc.runSeq(d, next, nil)
}

// runSeq executes nodes until reaching stop (exclusive) or a final node.
func (fc *flowCtx) runSeq(d *uml.Diagram, cur uml.Node, stop uml.Node) error {
	for cur != nil {
		if stop != nil && cur.ID() == stop.ID() {
			return nil
		}
		var err error
		switch n := cur.(type) {
		case *uml.ControlNode:
			switch n.Kind() {
			case uml.KindFinal:
				return nil
			case uml.KindMerge, uml.KindJoin:
				cur, err = fc.successor(d, n)
			case uml.KindDecision:
				cur, err = fc.branch(d, n)
			case uml.KindFork:
				cur, err = fc.fork(d, n)
			default:
				return fmt.Errorf("interp: diagram %q: unexpected %v mid-flow", d.Name(), n.Kind())
			}
		case *uml.ActionNode:
			if err := fc.step(n); err != nil {
				return err
			}
			if err := fc.execAction(n); err != nil {
				return err
			}
			cur, err = fc.successor(d, n)
		case *uml.ActivityNode:
			if err := fc.step(n); err != nil {
				return err
			}
			if err := fc.execActivity(n); err != nil {
				return err
			}
			cur, err = fc.successor(d, n)
		case *uml.LoopNode:
			if err := fc.step(n); err != nil {
				return err
			}
			if err := fc.execLoop(n); err != nil {
				return err
			}
			cur, err = fc.successor(d, n)
		default:
			return fmt.Errorf("interp: unknown node type %T", cur)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (fc *flowCtx) successor(d *uml.Diagram, n uml.Node) (uml.Node, error) {
	out := d.Outgoing(n.ID())
	switch len(out) {
	case 0:
		return nil, nil
	case 1:
		next := d.Node(out[0].To())
		if next == nil {
			return nil, fmt.Errorf("interp: diagram %q: dangling edge from %q", d.Name(), n.Name())
		}
		return next, nil
	}
	return nil, fmt.Errorf("interp: diagram %q: %v %q has %d successors",
		d.Name(), n.Kind(), n.Name(), len(out))
}

// branch picks the decision's successor: guard evaluation in model order
// for guarded decisions, or a weighted random draw for probabilistic
// decisions (no guards, positive weights).
func (fc *flowCtx) branch(d *uml.Diagram, n *uml.ControlNode) (uml.Node, error) {
	out := d.Outgoing(n.ID())
	if len(out) > 0 && out[0].Guard() == "" && out[0].Weight() > 0 {
		return fc.weightedBranch(d, n, out)
	}
	var elseEdge *uml.Edge
	for _, e := range out {
		if e.IsElse() {
			elseEdge = e
			continue
		}
		g, ok := fc.rs.pr.guards[e.ID()]
		if !ok {
			return nil, fmt.Errorf("interp: diagram %q: unguarded branch out of decision", d.Name())
		}
		v, err := fc.eval(g)
		if err != nil {
			return nil, fmt.Errorf("interp: guard %q: %w", e.Guard(), err)
		}
		if expr.Truthy(v) {
			return d.Node(e.To()), nil
		}
	}
	if elseEdge != nil {
		return d.Node(elseEdge.To()), nil
	}
	return nil, fmt.Errorf("interp: diagram %q: no guard of decision %q is true and there is no else branch",
		d.Name(), n.Name())
}

// weightedBranch samples a branch with probability weight/sum(weights).
func (fc *flowCtx) weightedBranch(d *uml.Diagram, n *uml.ControlNode, out []*uml.Edge) (uml.Node, error) {
	var total float64
	for _, e := range out {
		if e.Guard() != "" || e.Weight() <= 0 {
			return nil, fmt.Errorf("interp: diagram %q: decision %q mixes weighted and guarded branches",
				d.Name(), n.Name())
		}
		total += e.Weight()
	}
	r := fc.rs.rng.Float64() * total
	var acc float64
	for _, e := range out {
		acc += e.Weight()
		if r < acc {
			return d.Node(e.To()), nil
		}
	}
	return d.Node(out[len(out)-1].To()), nil
}

// fork runs every outgoing branch as a parallel simulation process up to
// the common join, then continues after the join.
func (fc *flowCtx) fork(d *uml.Diagram, n *uml.ControlNode) (uml.Node, error) {
	out := d.Outgoing(n.ID())
	if len(out) < 2 {
		return nil, fmt.Errorf("interp: diagram %q: fork %q has %d branch(es)", d.Name(), n.Name(), len(out))
	}
	conv := d.Convergence(n)
	join := fc.rs.eng.NewCounter("join:"+n.ID(), len(out))
	var firstErr error
	for i, e := range out {
		head := d.Node(e.To())
		if head == nil {
			return nil, fmt.Errorf("interp: diagram %q: dangling fork edge", d.Name())
		}
		branch := fc.child(fc.tid)
		fc.rs.eng.Spawn(fmt.Sprintf("p%d.fork%s.%d", fc.pid, n.ID(), i), func(p *sim.Process) {
			branch.p = p
			defer join.Done()
			if err := branch.runSeq(d, head, conv); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	join.Wait(fc.p)
	if firstErr != nil {
		return nil, firstErr
	}
	if conv != nil && conv.Kind() == uml.KindJoin {
		return fc.successor(d, conv)
	}
	return conv, nil
}

// execAction executes one action-like element.
func (fc *flowCtx) execAction(n *uml.ActionNode) error {
	if n.Stereotype() == "" {
		return nil // not a performance modeling element
	}
	// Associated code fragment runs before execute(), as in the generated
	// C++ (Figure 8b lines 72-76).
	for _, a := range fc.rs.pr.code[n.ID()] {
		v, err := a.Value.Eval(fc.env)
		if err != nil {
			return fmt.Errorf("interp: code of %q: %w", n.Name(), err)
		}
		fc.assign(a.Name, v)
	}
	fc.nextUID()
	fc.emit(trace.Enter, n)
	defer fc.emit(trace.Leave, n)

	tagVal := func(tag string, dflt float64) (float64, error) {
		c, ok := fc.rs.pr.tags[n.ID()][tag]
		if !ok {
			return dflt, nil
		}
		return fc.eval(c)
	}

	switch n.Stereotype() {
	case profile.ActionPlus:
		cost, _, err := fc.costValue(n.ID())
		if err != nil {
			return fmt.Errorf("interp: cost of %q: %w", n.Name(), err)
		}
		fc.rs.mach.Compute(fc.p, fc.pid, cost)
	case profile.OMPCritical:
		// Mutually exclusive region: the threads of this process
		// serialize on the element's facility (queue time is visible in
		// the trace as part of the element's inclusive time).
		cost, _, err := fc.costValue(n.ID())
		if err != nil {
			return fmt.Errorf("interp: cost of %q: %w", n.Name(), err)
		}
		fc.rs.critical(fc.pid, n.ID()).Use(fc.p, cost)
	case profile.MPISend:
		dest, err := tagVal(profile.TagDest, 0)
		if err != nil {
			return fmt.Errorf("interp: %q dest: %w", n.Name(), err)
		}
		size, err := tagVal(profile.TagSize, 0)
		if err != nil {
			return fmt.Errorf("interp: %q size: %w", n.Name(), err)
		}
		if err := fc.rs.mach.Send(fc.p, fc.pid, int(dest), size); err != nil {
			return fmt.Errorf("interp: %q: %w", n.Name(), err)
		}
		fc.emit(trace.Send, n)
	case profile.MPIRecv:
		src, err := tagVal(profile.TagSrc, -1)
		if err != nil {
			return fmt.Errorf("interp: %q src: %w", n.Name(), err)
		}
		if _, err := fc.rs.mach.Recv(fc.p, fc.pid, int(src)); err != nil {
			return fmt.Errorf("interp: %q: %w", n.Name(), err)
		}
		fc.emit(trace.Recv, n)
	case profile.MPISendrecv:
		dest, err := tagVal(profile.TagDest, 0)
		if err != nil {
			return fmt.Errorf("interp: %q dest: %w", n.Name(), err)
		}
		src, err := tagVal(profile.TagSrc, -1)
		if err != nil {
			return fmt.Errorf("interp: %q src: %w", n.Name(), err)
		}
		size, err := tagVal(profile.TagSize, 0)
		if err != nil {
			return fmt.Errorf("interp: %q size: %w", n.Name(), err)
		}
		// Send first (non-blocking past the NIC), then receive: every
		// rank pushes its outgoing message before waiting, so a ring of
		// sendrecvs cannot deadlock — MPI_Sendrecv semantics.
		if err := fc.rs.mach.Send(fc.p, fc.pid, int(dest), size); err != nil {
			return fmt.Errorf("interp: %q: %w", n.Name(), err)
		}
		if _, err := fc.rs.mach.Recv(fc.p, fc.pid, int(src)); err != nil {
			return fmt.Errorf("interp: %q: %w", n.Name(), err)
		}
	case profile.MPIBarrier:
		fc.rs.mach.Barrier(fc.p)
	case profile.MPIBroadcast:
		size, err := tagVal(profile.TagSize, 0)
		if err != nil {
			return fmt.Errorf("interp: %q size: %w", n.Name(), err)
		}
		fc.rs.mach.Broadcast(fc.p, size)
	case profile.MPIReduce:
		size, err := tagVal(profile.TagSize, 0)
		if err != nil {
			return fmt.Errorf("interp: %q size: %w", n.Name(), err)
		}
		fc.rs.mach.Reduce(fc.p, size)
	default:
		return fmt.Errorf("interp: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())
	}
	return nil
}

// execActivity nests the activity's content, charging its aggregate cost
// first if one is attached.
func (fc *flowCtx) execActivity(n *uml.ActivityNode) error {
	fc.nextUID()
	fc.emit(trace.Enter, n)
	defer fc.emit(trace.Leave, n)
	for _, a := range fc.rs.pr.code[n.ID()] {
		v, err := a.Value.Eval(fc.env)
		if err != nil {
			return fmt.Errorf("interp: code of %q: %w", n.Name(), err)
		}
		fc.assign(a.Name, v)
	}
	if v, ok, err := fc.costValue(n.ID()); err != nil {
		return fmt.Errorf("interp: cost of %q: %w", n.Name(), err)
	} else if ok {
		fc.rs.mach.Compute(fc.p, fc.pid, v)
	}
	if n.Stereotype() == profile.OMPParallel {
		return fc.parallelRegion(n)
	}
	body := fc.rs.pr.model.DiagramByName(n.Body())
	if body == nil {
		return fmt.Errorf("interp: activity %q references unknown diagram %q", n.Name(), n.Body())
	}
	return fc.runDiagram(body)
}

// parallelRegion runs the body once per team thread in parallel; the team
// size defaults to the system parameter `threads`.
func (fc *flowCtx) parallelRegion(n *uml.ActivityNode) error {
	team := fc.rs.sp["threads"]
	if c, ok := fc.rs.pr.tags[n.ID()][profile.TagCount]; ok {
		v, err := fc.eval(c)
		if err != nil {
			return fmt.Errorf("interp: parallel region %q count: %w", n.Name(), err)
		}
		team = v
	}
	t := int(team)
	if t < 1 {
		t = 1
	}
	body := fc.rs.pr.model.DiagramByName(n.Body())
	if body == nil {
		return fmt.Errorf("interp: parallel region %q references unknown diagram %q", n.Name(), n.Body())
	}
	join := fc.rs.eng.NewCounter("omp:"+n.ID(), t)
	var firstErr error
	for tid := 0; tid < t; tid++ {
		worker := fc.child(tid)
		fc.rs.eng.Spawn(fmt.Sprintf("p%d.omp%s.t%d", fc.pid, n.ID(), tid), func(p *sim.Process) {
			worker.p = p
			defer join.Done()
			if err := worker.runDiagram(body); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	join.Wait(fc.p)
	return firstErr
}

// execLoop repeats the body diagram count times, exposing the iteration
// index through the loop variable.
func (fc *flowCtx) execLoop(n *uml.LoopNode) error {
	var v float64
	var err error
	if d, ok := fc.rs.pr.distCounts[n.ID()]; ok {
		// Stochastic repetition count: one draw per loop entry, rounded
		// down to an integer.
		v, err = d.Sample(fc.env, fc.rs.rng)
	} else {
		v, err = fc.eval(fc.rs.pr.counts[n.ID()])
	}
	if err != nil {
		return fmt.Errorf("interp: loop %q count: %w", n.Name(), err)
	}
	count := int(v)
	body := fc.rs.pr.model.DiagramByName(n.Body())
	if body == nil {
		return fmt.Errorf("interp: loop %q references unknown diagram %q", n.Name(), n.Body())
	}
	varName := n.Var()
	var saved float64
	var hadSaved bool
	if varName != "" {
		saved, hadSaved = fc.locals[varName]
	}
	for i := 0; i < count; i++ {
		if err := fc.step(n); err != nil {
			return err
		}
		if varName != "" {
			fc.locals[varName] = float64(i)
		}
		if err := fc.runDiagram(body); err != nil {
			return err
		}
	}
	if varName != "" {
		if hadSaved {
			fc.locals[varName] = saved
		} else {
			delete(fc.locals, varName)
		}
	}
	return nil
}
