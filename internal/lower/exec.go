package lower

import (
	"context"
	"fmt"
	"strconv"

	"prophet/internal/expr"
	"prophet/internal/interp"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// Run executes the flat program under the interpreter's configuration and
// produces a Result bit-identical to interp.Program.Run on the same model
// and config. Single-process models with no engine-dependent ops run in
// direct mode — a plain loop over the op array with a local clock, no
// event queue at all; everything else replays the interpreter's engine
// choreography (same process names, counters and facilities, so the event
// order and therefore the trace are identical).
func (pr *Program) Run(cfg interp.Config) (*interp.Result, error) {
	sp := cfg.Params
	if sp == (machine.SystemParams{}) {
		sp = machine.DefaultParams()
	}
	maxSteps := cfg.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 50_000_000
	}
	if pr.direct(cfg, sp) {
		return pr.runDirect(cfg, sp, maxSteps)
	}
	return pr.runEngine(cfg, sp, maxSteps)
}

// direct reports whether the run can skip the event engine entirely: one
// process, FCFS, no engine-only ops, and no feature that observes engine
// internals (telemetry, run limits).
func (pr *Program) direct(cfg interp.Config, sp machine.SystemParams) bool {
	return !pr.engineOnly &&
		sp.Processes == 1 &&
		cfg.Observer == nil &&
		cfg.RunLimit <= 0 &&
		cfg.Policy == machine.PolicyFCFS
}

// runtimeState is the state shared by all frames of one run.
type runtimeState struct {
	prog     *Program
	eng      *sim.Engine      // nil in direct mode
	mach     *machine.Machine // nil in direct mode
	params   machine.SystemParams
	sp       map[string]float64
	globals  []float64
	extras   map[string]float64 // config globals with no declaration
	trace    *trace.Trace
	uid      int
	maxSteps int
	crits    map[critKey]*sim.Facility
	rng      *sim.Stream
	rec      *trace.Recorder // the run's events until it ends; nil when untraced
	finished float64

	// Direct mode: the event queue degenerates to a clock accumulator and
	// busy integrals for the CPU and each critical section (the single
	// process is the only facility user, so utilization is busy time over
	// total time). holds counts the engine holds the run stands in for.
	direct   bool
	clock    float64
	cpuBusy  float64
	critBusy map[string]float64 // element ID -> busy time
	holds    int64
	ops      int64
	ctx      context.Context
	ctxCheck int

	// free holds branch and thread frames whose process finished cleanly,
	// for the next fork or parallel region to reuse.
	free []*frame
}

func (rt *runtimeState) now() float64 {
	if rt.direct {
		return rt.clock
	}
	return rt.eng.Now()
}

// critical returns (creating on first use) the 1-server facility guarding
// an omp_critical element within one process.
func (rt *runtimeState) critical(pid int, elemID string) *sim.Facility {
	key := critKey{pid, elemID}
	if f, ok := rt.crits[key]; ok {
		return f
	}
	f := rt.eng.NewFacility(criticalName(pid, elemID), 1)
	rt.crits[key] = f
	return f
}

// critKey identifies one omp_critical element within one process.
type critKey struct {
	pid int
	id  string
}

// criticalName names the facility of a critical section ("critical:pid/elemID").
func criticalName(pid int, elemID string) string {
	return "critical:" + strconv.Itoa(pid) + "/" + elemID
}

// frame is one process of a run as an explicit record: its slot-backed
// variables, its position, the loops and activity bodies around it, and
// how far the op at its pc got before a wait. In engine mode it is its
// process's sim.Continuation; direct mode runs the same loop, unwaiting.
type frame struct {
	rt    *runtimeState
	p     *sim.Process
	pid   int
	tid   int
	env   expr.SlotEnv
	steps int

	seg, pc  int          // position; pc -1 ends the segment
	stack    []ctl        // loops and activity bodies around the position
	stackBuf [4]ctl       // stack's first array, so shallow nesting allocates nothing
	stage    stage        // how far the op at pc got before its wait
	pending  machine.Step // the machine operation under way at a wait
	recvSrc  int          // sendrecv: the source rank, evaluated before its send

	// A branch or thread frame runs for the fork or parallel region
	// spawnOp of parent; branch is its fork branch index.
	parent  *frame
	spawnOp *op
	branch  int

	// join and childErr belong to the fork or parallel region the frame
	// is running: the latch its branches count down and the first error
	// one of them returned. A frame waits on one join at a time.
	join     *sim.Counter
	childErr error
}

// ctl is a control stack entry: an activity whose body is running, or a
// loop. The process carries on at o.next in segment seg after it.
type ctl struct {
	o        *op
	seg      int
	i, n     int     // loop: iterations begun, and the count
	saved    float64 // loop: the loop variable's value before the loop
	hadSaved bool
}

// stage is how far the op at a frame's pc got before it began a wait.
type stage uint8

const (
	atOp   stage = iota // nothing under way
	inStep              // a machine operation: an action's, a sendrecv's send, an activity's cost
	inRecv              // a sendrecv's receive, after its send
	inJoin              // a fork's or parallel region's join
)

// dynEnv is a frame's fallback environment: it resolves slot-mapped names
// for the benefit of user-function bodies (which evaluate free variables
// through the Env chain), then config-injected globals, then system
// parameters — the exact varsEnv shadowing order.
type dynEnv struct{ fr *frame }

func (d *dynEnv) Var(name string) (float64, bool) {
	fr := d.fr
	rt := fr.rt
	if r, ok := rt.prog.lay.rules[name]; ok {
		switch r.Kind {
		case expr.SlotLocal:
			return fr.env.Locals[r.Local], true
		case expr.SlotLocalDyn:
			if fr.env.Defined[r.Local] {
				return fr.env.Locals[r.Local], true
			}
			if r.Global >= 0 {
				return rt.globals[r.Global], true
			}
		case expr.SlotGlobal:
			return rt.globals[r.Global], true
		}
	}
	if v, ok := rt.extras[name]; ok {
		return v, true
	}
	v, ok := rt.sp[name]
	return v, ok
}

func (d *dynEnv) Func(string) (expr.Func, bool) { return nil, false }

// rootFrame returns process pid's frame at the start of the main
// diagram; init sets up its variables when it first runs.
func (rt *runtimeState) rootFrame(pid int) *frame {
	fr := &frame{rt: rt, pid: pid, seg: rt.prog.mainSeg}
	fr.pc = rt.prog.segs[fr.seg].entry
	fr.stack = fr.stackBuf[:0]
	return fr
}

// init sets up a root frame's variables, replicating newFlowCtx: pid/tid
// seeded, uid 0, then scope-local initializers evaluated in declaration
// order with progressively visible earlier locals; initializer errors are
// ignored (the variable stays 0), as in the interpreter.
func (fr *frame) init() {
	rt, pid, tid := fr.rt, fr.pid, fr.tid
	lay := rt.prog.lay
	fr.env = expr.SlotEnv{
		Locals:  make([]float64, len(lay.localNames)),
		Defined: make([]bool, len(lay.localNames)),
		Globals: rt.globals,
	}
	fr.env.Fallback = rt.prog.parts.Lib.Bind(&dynEnv{fr: fr})

	vis := map[string]float64{"pid": float64(pid), "tid": float64(tid), "uid": 0}
	fr.env.Locals[lay.pidSlot] = float64(pid)
	fr.env.Locals[lay.tidSlot] = float64(tid)
	initEnv := rt.prog.parts.Lib.Bind(&localInitEnv{rt: rt, vis: vis})
	for _, v := range rt.prog.parts.Model.VariablesIn(uml.ScopeLocal) {
		slot := lay.localIdx[v.Name]
		fr.env.Locals[slot] = 0
		vis[v.Name] = 0
		if init, ok := rt.prog.parts.Inits[v.Name]; ok {
			if val, err := init.Eval(initEnv); err == nil {
				fr.env.Locals[slot] = val
				vis[v.Name] = val
			}
		}
	}
}

// localInitEnv is the environment scope-local initializers see: the
// already-initialized locals, then globals (declared and extras), then
// system parameters.
type localInitEnv struct {
	rt  *runtimeState
	vis map[string]float64
}

func (e *localInitEnv) Var(name string) (float64, bool) {
	if v, ok := e.vis[name]; ok {
		return v, true
	}
	if gi, ok := e.rt.prog.lay.globalIdx[name]; ok {
		return e.rt.globals[gi], true
	}
	if v, ok := e.rt.extras[name]; ok {
		return v, true
	}
	v, ok := e.rt.sp[name]
	return v, ok
}

func (e *localInitEnv) Func(string) (expr.Func, bool) { return nil, false }

// globalInitEnv is what global initializers see: the globals declared
// before them (the interpreter zero-fills and fills the map as it walks
// the declarations), then system parameters.
type globalInitEnv struct {
	rt      *runtimeState
	visible int
}

func (e *globalInitEnv) Var(name string) (float64, bool) {
	if gi, ok := e.rt.prog.lay.globalIdx[name]; ok && gi < e.visible {
		return e.rt.globals[gi], true
	}
	v, ok := e.rt.sp[name]
	return v, ok
}

func (e *globalInitEnv) Func(string) (expr.Func, bool) { return nil, false }

// initGlobals runs declared initializers in order, then config overrides.
func (rt *runtimeState) initGlobals(cfg interp.Config) error {
	prog := rt.prog
	gie := &globalInitEnv{rt: rt}
	env := prog.parts.Lib.Bind(gie)
	for i, init := range prog.globalInits {
		gie.visible = i + 1 // the variable itself is visible as 0
		if init == nil {
			continue
		}
		val, err := init.Eval(env)
		if err != nil {
			return fmt.Errorf("lower: initialize %s: %w", prog.lay.globalNames[i], err)
		}
		rt.globals[i] = val
	}
	for k, v := range cfg.Globals {
		if gi, ok := prog.lay.globalIdx[k]; ok {
			rt.globals[gi] = v
			continue
		}
		rt.extras[k] = v
	}
	return nil
}

// child clones the frame for a branch or thread running segment seg of
// spawnOp. It reuses a frame from the run's free list when there is one,
// copying the locals into the slices that frame already has, so a fork
// allocates frames only up to the run's peak number of live branches. A
// reused frame keeps its bound fallback environment and its stack.
func (fr *frame) child(spawnOp *op, seg, branch, tid int) *frame {
	rt := fr.rt
	var nc *frame
	if n := len(rt.free); n > 0 {
		nc = rt.free[n-1]
		rt.free = rt.free[:n-1]
		copy(nc.env.Locals, fr.env.Locals)
		copy(nc.env.Defined, fr.env.Defined)
		nc.steps = 0
	} else {
		nc = &frame{rt: rt}
		nc.env = expr.SlotEnv{
			Locals:  append([]float64(nil), fr.env.Locals...),
			Defined: append([]bool(nil), fr.env.Defined...),
			Globals: rt.globals,
		}
		nc.env.Fallback = rt.prog.parts.Lib.Bind(&dynEnv{fr: nc})
		nc.stack = nc.stackBuf[:0]
	}
	nc.pid, nc.tid = fr.pid, tid
	nc.parent, nc.spawnOp, nc.branch = fr, spawnOp, branch
	nc.seg, nc.pc = seg, -1
	if seg >= 0 {
		nc.pc = rt.prog.segs[seg].entry
	}
	nc.env.Locals[rt.prog.lay.tidSlot] = float64(tid)
	nc.p = rt.eng.SpawnContinuation(nc)
	return nc
}

// Name names the frame's process as the interpreter does: p<pid>, and for
// a branch or thread p<pid>.fork<id>.<branch> or p<pid>.omp<id>.t<tid>.
// The engine builds the name only when something reads it; a frame is
// recycled only after its process has finished, so the name is always
// the live process's.
func (fr *frame) Name() string {
	switch {
	case fr.spawnOp == nil:
		return interp.ProcessName(fr.pid)
	case fr.spawnOp.kind == opParallel:
		return fmt.Sprintf("p%d.omp%s.t%d", fr.pid, fr.spawnOp.id, fr.tid)
	}
	return fmt.Sprintf("p%d.fork%s.%d", fr.pid, fr.spawnOp.id, fr.branch)
}

// Resume runs the frame's process until it waits or ends. A root
// process's error fails the run; a branch or thread records it at the
// parent, counts down the parent's join and, when it succeeded, frees its
// frame. A failed frame is never reused: after a dangling fork edge its
// own branches may still be running and will count down its join.
func (fr *frame) Resume(*sim.Process) (bool, error) {
	rt := fr.rt
	if fr.env.Locals == nil {
		fr.init()
	}
	wait, err := fr.exec()
	if wait {
		return true, nil
	}
	parent := fr.parent
	if parent == nil {
		if now := rt.eng.Now(); now > rt.finished {
			rt.finished = now
		}
		return false, err
	}
	if err != nil && parent.childErr == nil {
		parent.childErr = err
	}
	parent.join.Done()
	if err == nil {
		rt.free = append(rt.free, fr)
	}
	return false, nil
}

// arm readies the frame's join latch for n branches or threads. The latch
// has drained: the frame's previous fork or region waited for it.
func (fr *frame) arm(n int) {
	fr.childErr = nil
	if fr.join == nil {
		fr.join = fr.rt.eng.NewCounter("join", n)
		return
	}
	fr.join.Reset(n)
}

// runAssign applies one pre-resolved code statement. Non-global targets
// still check the extras map first: the interpreter writes any name
// present in its globals map, which includes config-injected globals that
// were never declared.
func (fr *frame) runAssign(a *assign, v float64) {
	rt := fr.rt
	switch a.kind {
	case asgGlobal:
		rt.globals[a.slot] = v
	case asgLocal:
		if _, ok := rt.extras[a.name]; ok {
			rt.extras[a.name] = v
			return
		}
		fr.env.Locals[a.slot] = v
	case asgLocalDyn:
		if _, ok := rt.extras[a.name]; ok {
			rt.extras[a.name] = v
			return
		}
		fr.env.Locals[a.slot] = v
		fr.env.Defined[a.slot] = true
	}
}

func (fr *frame) runCode(o *op) error {
	for i := range o.code {
		a := &o.code[i]
		v, err := a.value.Eval(&fr.env)
		if err != nil {
			return fmt.Errorf("lower: code of %q: %w", o.name, err)
		}
		fr.runAssign(a, v)
	}
	return nil
}

func (fr *frame) nextUID() {
	fr.rt.uid++
	fr.env.Locals[fr.rt.prog.lay.uidSlot] = float64(fr.rt.uid)
}

// emit records an event unless the run is untraced. The append is out of
// line in record, so emit inlines into the run loop and an untraced run
// pays one check per event.
func (fr *frame) emit(kind trace.Kind, o *op) {
	if fr.rt.rec != nil {
		fr.record(kind, o)
	}
}

func (fr *frame) record(kind trace.Kind, o *op) {
	fr.rt.rec.Record(trace.Event{
		T: fr.rt.now(), PID: fr.pid, TID: fr.tid,
		Kind: kind, Elem: o.id, Name: o.name,
	})
}

// step counts an element execution against the runaway guard.
func (fr *frame) step(name string) error {
	fr.steps++
	if fr.steps > fr.rt.maxSteps {
		return fmt.Errorf("lower: process %d exceeded %d element executions at %q (unbounded loop?)",
			fr.pid, fr.rt.maxSteps, name)
	}
	return nil
}

// hold advances a direct run's clock by dt with sim.Process.Hold
// semantics (negative clamps to zero; the engine's schedule clamp keeps
// NaN sticky).
func (fr *frame) hold(dt float64) {
	rt := fr.rt
	rt.holds++
	if dt < 0 {
		dt = 0
	}
	t := rt.clock + dt
	if t < rt.clock {
		t = rt.clock
	}
	rt.clock = t
}

// compute charges dt to the process's CPU: the machine step its caller
// carries out. In direct mode the single process owns the facility, so
// service time is the hold and the busy integral grows by exactly the
// time advanced — the same float ops the facility's account() performs.
func (fr *frame) compute(dt float64) {
	rt := fr.rt
	if !rt.direct {
		fr.pending = rt.mach.ComputeStep(fr.pid, dt)
		return
	}
	if dt <= 0 {
		return
	}
	rt.holds++
	start := rt.clock
	end := start + dt
	if end < start {
		end = start
	}
	rt.cpuBusy += end - start
	rt.clock = end
}

// evalTag evaluates an optional stereotype tag expression.
func (fr *frame) evalTag(c *expr.Slotted, dflt float64) (float64, error) {
	if c == nil {
		return dflt, nil
	}
	return c.Eval(&fr.env)
}

// exec runs the process from its position until it begins a wait, which
// it reports, or its flow ends. A resumed process first completes the op
// whose wait it began.
func (fr *frame) exec() (wait bool, err error) {
	rt := fr.rt
	segs := rt.prog.segs
	si, pc := fr.seg, fr.pc
	if fr.stage != atOp {
		if si, pc, wait, err = fr.complete(&segs[si].ops[pc], si, pc); wait || err != nil {
			return wait, err
		}
	}
	for {
		if pc < 0 {
			// The segment ended: iterate or leave the loop or activity.
			n := len(fr.stack) - 1
			if n < 0 {
				return false, nil
			}
			c := &fr.stack[n]
			o, lv := c.o, c.o.loopVar
			if o.kind == opLoop && c.i < c.n {
				if err := fr.step(o.name); err != nil {
					return false, err
				}
				if lv.name != "" {
					fr.env.Locals[lv.slot] = float64(c.i)
					if lv.dyn {
						fr.env.Defined[lv.slot] = true
					}
				}
				c.i++
				si, pc = o.body, segs[o.body].entry
				continue
			}
			switch {
			case o.kind != opLoop:
				fr.emit(trace.Leave, o)
			case lv.name == "":
			case c.hadSaved:
				fr.env.Locals[lv.slot] = c.saved
			default:
				fr.env.Defined[lv.slot] = false
			}
			si, pc = c.seg, o.next
			fr.stack = fr.stack[:n]
			continue
		}
		rt.ops++
		if rt.direct && rt.ctx != nil {
			// The engine checks for interruption between events; direct
			// mode has no events, so poll the context every few ops.
			if rt.ctxCheck++; rt.ctxCheck&63 == 0 && rt.ctx.Err() != nil {
				return false, &sim.InterruptError{Time: rt.clock, Cause: context.Cause(rt.ctx)}
			}
		}
		o := &segs[si].ops[pc]
		switch o.kind {
		case opError:
			return false, o.err

		case opAction:
			if err := fr.step(o.name); err != nil {
				return false, err
			}
			if o.act == actPlain {
				pc = o.next
				continue
			}
			// Code runs before execute(), as in the generated C++.
			if err := fr.runCode(o); err != nil {
				return false, err
			}
			fr.nextUID()
			fr.emit(trace.Enter, o)
			if err := fr.beginAct(o); err != nil {
				return false, err
			}
			if rt.direct { // the operation is done: no machine, no wait
				fr.emit(trace.Leave, o)
				pc = o.next
				continue
			}

		case opActivity, opParallel:
			if err := fr.step(o.name); err != nil {
				return false, err
			}
			fr.nextUID()
			fr.emit(trace.Enter, o)

		case opLoop:
			if err := fr.step(o.name); err != nil {
				return false, err
			}
			if err := fr.loop(o, si); err != nil {
				return false, err
			}
			pc = -1 // the first iteration starts where a body's end would
			continue

		case opBranch:
			if pc, err = fr.execBranch(o); err != nil {
				return false, err
			}
			continue

		case opWeighted:
			r := rt.rng.Float64() * o.total
			var acc float64
			pc = o.targets[len(o.targets)-1]
			for i, w := range o.weights {
				acc += w
				if r < acc {
					pc = o.targets[i]
					break
				}
			}
			continue

		case opNop:
			pc = o.next
			continue
		}
		// An action, activity or fork: the part that may wait.
		if si, pc, wait, err = fr.complete(o, si, pc); wait || err != nil {
			return wait, err
		}
	}
}

// complete runs the part of an action, activity or fork that may wait, on
// from its last wait, and returns the position after it, or saves the
// op's position at a wait.
func (fr *frame) complete(o *op, si, pc int) (int, int, bool, error) {
	var wait bool
	var err error
	switch {
	case fr.stage == inJoin: // its branches or threads have all finished
		fr.stage, err = atOp, fr.childErr
	case o.kind == opAction:
		wait, err = fr.act(o)
	case o.kind == opFork:
		wait, err = fr.fork(o)
	default:
		wait, err = fr.activity(o)
	}
	if wait || err != nil {
		fr.seg, fr.pc = si, pc
		return si, pc, wait, err
	}
	switch o.kind {
	case opActivity:
		fr.stack = append(fr.stack, ctl{o: o, seg: si})
		return o.body, fr.rt.prog.segs[o.body].entry, false, nil
	case opAction, opParallel:
		fr.emit(trace.Leave, o)
	}
	return si, o.next, false, nil
}

func (fr *frame) execBranch(o *op) (int, error) {
	for i := range o.arms {
		arm := &o.arms[i]
		if arm.err != nil {
			return 0, arm.err
		}
		v, err := arm.guard.Eval(&fr.env)
		if err != nil {
			return 0, fmt.Errorf("lower: guard %q: %w", arm.src, err)
		}
		if expr.Truthy(v) {
			return arm.target, nil
		}
	}
	if o.hasElse {
		return o.elsePC, nil
	}
	return 0, o.noMatch
}

// costOf resolves an op's cost: a slot-resolved evaluation, or — for a
// distribution-literal cost — one draw from the run's seed stream, at the
// same logical point the interpreter draws so traces stay bit-identical.
// ok is false when the op carries no cost.
func (fr *frame) costOf(o *op) (v float64, ok bool, err error) {
	if o.costDist != nil {
		v, err = o.costDist.Sample(&fr.env, fr.rt.rng)
		return v, true, err
	}
	if o.cost != nil {
		v, err = o.cost.Eval(&fr.env)
		return v, true, err
	}
	return 0, false, nil
}

// act carries on an action's machine operation while it waits.
func (fr *frame) act(o *op) (bool, error) {
	rt := fr.rt
	if fr.stage == atOp {
		fr.stage = inStep
	}
	for {
		wait, err := rt.mach.Resume(fr.p, &fr.pending)
		if wait {
			return true, nil
		}
		if err == nil && o.act == actSendrecv && fr.stage == inStep {
			fr.stage = inRecv // the send is done: receive
			fr.pending = rt.mach.RecvStep(fr.pid, fr.recvSrc)
			continue
		}
		fr.stage = atOp
		if err != nil {
			return false, fmt.Errorf("lower: %q: %w", o.name, err)
		}
		switch o.act {
		case actSend:
			fr.emit(trace.Send, o)
		case actRecv:
			fr.emit(trace.Recv, o)
		}
		return false, nil
	}
}

// beginAct evaluates an action's cost or tags and sets up its machine
// operation; direct mode applies it to the clock.
func (fr *frame) beginAct(o *op) error {
	rt := fr.rt
	switch o.act {
	case actCompute, actCritical:
		cost, _, err := fr.costOf(o)
		if err != nil {
			return fmt.Errorf("lower: cost of %q: %w", o.name, err)
		}
		switch {
		case o.act == actCompute:
			fr.compute(cost)
		case !rt.direct:
			fr.pending = machine.UseStep(rt.critical(fr.pid, o.id), cost)
		default:
			// One process, one thread: the facility is always free, so
			// Use degenerates to the hold, busy for exactly its length.
			start := rt.clock
			fr.hold(cost)
			if rt.critBusy == nil {
				rt.critBusy = map[string]float64{}
			}
			rt.critBusy[o.id] += rt.clock - start
		}
	case actSend, actSendrecv:
		dest, err := fr.evalTag(o.dest, 0)
		if err != nil {
			return fmt.Errorf("lower: %q dest: %w", o.name, err)
		}
		if o.act == actSendrecv {
			src, err := fr.evalTag(o.src, -1)
			if err != nil {
				return fmt.Errorf("lower: %q src: %w", o.name, err)
			}
			fr.recvSrc = int(src)
		}
		size, err := fr.evalTag(o.size, 0)
		if err != nil {
			return fmt.Errorf("lower: %q size: %w", o.name, err)
		}
		fr.pending = rt.mach.SendStep(fr.pid, int(dest), size)
	case actRecv:
		src, err := fr.evalTag(o.src, -1)
		if err != nil {
			return fmt.Errorf("lower: %q src: %w", o.name, err)
		}
		fr.pending = rt.mach.RecvStep(fr.pid, int(src))
	case actBarrier:
		if !rt.direct { // one process: Barrier is a no-op
			fr.pending = rt.mach.BarrierStep()
		}
	case actBroadcast, actReduce:
		size, err := fr.evalTag(o.size, 0)
		if err != nil {
			return fmt.Errorf("lower: %q size: %w", o.name, err)
		}
		if rt.direct {
			fr.hold(0) // collectiveTime is 0 with one process
		} else {
			fr.pending = rt.mach.CollectiveStep(size)
		}
	}
	return nil
}

// activity runs an activity's code and cost, then spawns a parallel
// region's threads and waits on their join.
func (fr *frame) activity(o *op) (bool, error) {
	rt := fr.rt
	switch fr.stage {
	case atOp:
		if err := fr.runCode(o); err != nil {
			return false, err
		}
		v, ok, err := fr.costOf(o)
		if err != nil {
			return false, fmt.Errorf("lower: cost of %q: %w", o.name, err)
		}
		if !ok {
			break
		}
		fr.compute(v)
		if rt.direct {
			break
		}
		fr.stage = inStep
		fallthrough
	case inStep:
		if wait, _ := rt.mach.Resume(fr.p, &fr.pending); wait {
			return true, nil
		}
		fr.stage = atOp
	}
	if o.kind == opActivity {
		if o.body < 0 {
			return false, o.bodyErr
		}
		return false, nil
	}
	team := rt.sp["threads"]
	if o.count != nil {
		v, err := o.count.Eval(&fr.env)
		if err != nil {
			return false, fmt.Errorf("lower: parallel region %q count: %w", o.name, err)
		}
		team = v
	}
	t := int(team)
	if t < 1 {
		t = 1
	}
	if o.body < 0 {
		return false, o.bodyErr
	}
	fr.arm(t)
	for tid := 0; tid < t; tid++ {
		fr.child(o, o.body, 0, tid)
	}
	return fr.awaitJoin()
}

// fork runs each branch as a process on a recycled child frame and waits
// on the join; the first branch error in engine order fails it.
func (fr *frame) fork(o *op) (bool, error) {
	fr.arm(o.forkTotal)
	for i, br := range o.branches {
		fr.child(o, br, i, fr.tid)
	}
	if o.err != nil {
		// Dangling fork edge: fail after spawning the earlier branches,
		// without waiting on the join — execution order matches fork().
		// The spawned branches still count down fr.join, which is why
		// Resume never recycles a frame whose run failed.
		return false, o.err
	}
	return fr.awaitJoin()
}

// awaitJoin waits for the frame's branches or threads, if any is left,
// and returns the first error one of them returned.
func (fr *frame) awaitJoin() (bool, error) {
	if fr.join.BeginWait(fr.p) {
		fr.stage = inJoin
		return true, nil
	}
	return false, fr.childErr
}

// loop pushes a loop's count and its variable's value, which the loop's
// end restores.
func (fr *frame) loop(o *op, si int) error {
	var v float64
	var err error
	if o.countDist != nil {
		// Stochastic repetition count: one draw per loop entry, rounded
		// down to an integer (matching the interpreter).
		v, err = o.countDist.Sample(&fr.env, fr.rt.rng)
	} else {
		v, err = o.count.Eval(&fr.env)
	}
	if err != nil {
		return fmt.Errorf("lower: loop %q count: %w", o.name, err)
	}
	if o.body < 0 {
		return o.bodyErr
	}
	c := ctl{o: o, seg: si, n: int(v)}
	if lv := o.loopVar; lv.name != "" {
		c.saved = fr.env.Locals[lv.slot]
		c.hadSaved = !lv.dyn || fr.env.Defined[lv.slot]
	}
	fr.stack = append(fr.stack, c)
	return nil
}

// newRuntime builds run state common to both modes.
func (pr *Program) newRuntime(cfg interp.Config, sp machine.SystemParams, maxSteps int, direct bool) *runtimeState {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rt := &runtimeState{
		prog:     pr,
		params:   sp,
		sp:       sp.Env(),
		globals:  make([]float64, len(pr.lay.globalNames)),
		extras:   map[string]float64{},
		trace:    interp.NewTrace(pr.parts.Model.Name(), sp),
		maxSteps: maxSteps,
		crits:    map[critKey]*sim.Facility{},
		rng:      sim.NewStream(seed),
		direct:   direct,
		ctx:      cfg.Context,
	}
	if !cfg.NoTrace {
		rt.rec = new(trace.Recorder)
	}
	return rt
}

// endTrace hands the recorded events to the run's trace, or drops them
// when the run failed. It runs inside the "sim" span, which pays for
// recording.
func (rt *runtimeState) endTrace(err error) {
	if rt.rec == nil {
		return
	}
	if err != nil {
		rt.rec.Discard()
		return
	}
	rt.rec.Finish(rt.trace)
}

// result assembles the run outcome; utilization is supplied per mode.
func (rt *runtimeState) result(sp machine.SystemParams, util func(node int) float64) *interp.Result {
	globals := make(map[string]float64, len(rt.globals)+len(rt.extras))
	for i, name := range rt.prog.lay.globalNames {
		globals[name] = rt.globals[i]
	}
	for k, v := range rt.extras {
		globals[k] = v
	}
	res := &interp.Result{
		Trace:    rt.trace,
		Makespan: rt.finished,
		Globals:  globals,
	}
	for n := 0; n < sp.Nodes; n++ {
		res.CPUUtilization = append(res.CPUUtilization, util(n))
	}
	return res
}

// runDirect executes a single-process program without the event engine.
func (pr *Program) runDirect(cfg interp.Config, sp machine.SystemParams, maxSteps int) (*interp.Result, error) {
	if ctx := cfg.Context; ctx != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("lower: %w", context.Cause(ctx))
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	rt := pr.newRuntime(cfg, sp, maxSteps, true)
	if err := rt.initGlobals(cfg); err != nil {
		return nil, err
	}
	if pr.mainSeg < 0 {
		return nil, pr.mainErr
	}

	_, span := obs.StartSpan(cfg.Context, "sim")
	fr := rt.rootFrame(0)
	fr.init()
	_, err := fr.exec()
	rt.endTrace(err)
	span.Annotate("events", strconv.FormatInt(rt.ops, 10))
	span.Annotate("sim_time", strconv.FormatFloat(rt.clock, 'g', -1, 64))
	span.Annotate("processes", strconv.Itoa(sp.Processes))
	span.Annotate("backend", "lowered")
	span.Annotate("mode", "direct")
	span.End()
	if err != nil {
		if _, ok := err.(*sim.InterruptError); !ok {
			err = &sim.ProcessError{Process: "p0", Err: err}
		}
		return nil, fmt.Errorf("lower: %w", err)
	}
	if rt.clock > rt.finished {
		rt.finished = rt.clock
	}
	res := rt.result(sp, rt.directCPU)
	res.Stats = (*directStats)(rt)
	return res, nil
}

// busyShare is the Facility.Utilization of a direct run's facility with
// servers servers, busy for busy time units.
func (rt *runtimeState) busyShare(busy float64, servers int) float64 {
	if rt.clock == 0 {
		return 0
	}
	return busy / (rt.clock * float64(servers))
}

// directCPU is node n's CPU utilization in a direct run: the lone process
// runs on node 0.
func (rt *runtimeState) directCPU(n int) float64 {
	if n != 0 {
		return rt.busyShare(0, rt.params.ProcessorsPerNode)
	}
	return rt.busyShare(rt.cpuBusy, rt.params.ProcessorsPerNode)
}

// directStats reads a direct run's statistics as the engine reports
// them for the same lone process: one spawn, a dispatch per hold, and
// node 0's CPU and each critical section busy for the time the process
// spent in them, every other facility idle.
type directStats runtimeState

func (d *directStats) EventCounts() sim.EventCounts {
	return sim.LoneProcessEventCounts(d.holds)
}

func (d *directStats) FacilityUtilization() map[string]float64 {
	rt := (*runtimeState)(d)
	sp := rt.params
	out := make(map[string]float64, 2*sp.Nodes+len(rt.critBusy))
	for n := 0; n < sp.Nodes; n++ {
		out[machine.CPUFacility(n)] = rt.directCPU(n)
		out[machine.NICFacility(n)] = rt.busyShare(0, 1)
	}
	for id, busy := range rt.critBusy {
		out[criticalName(0, id)] = rt.busyShare(busy, 1)
	}
	return out
}

// runEngine replays the interpreter's engine choreography for the flat
// program: identical process names, counters and facilities yield an
// identical (time, seq) event order, and therefore an identical trace.
func (pr *Program) runEngine(cfg interp.Config, sp machine.SystemParams, maxSteps int) (*interp.Result, error) {
	eng := sim.New()
	if cfg.Observer != nil {
		eng.SetObserver(cfg.Observer, cfg.SampleInterval)
	}
	if ctx := cfg.Context; ctx != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("lower: %w", context.Cause(ctx))
		}
		defer eng.WatchContext(ctx)()
	}
	net := machine.DefaultNet()
	if cfg.Net != nil {
		net = *cfg.Net
	}
	mach, err := machine.NewWithPolicy(eng, sp, net, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}

	rt := pr.newRuntime(cfg, sp, maxSteps, false)
	rt.eng = eng
	rt.mach = mach
	if err := rt.initGlobals(cfg); err != nil {
		return nil, err
	}
	if pr.mainSeg < 0 {
		return nil, pr.mainErr
	}

	for pid := 0; pid < sp.Processes; pid++ {
		fr := rt.rootFrame(pid)
		fr.p = eng.SpawnContinuation(fr)
	}

	_, span := obs.StartSpan(cfg.Context, "sim")
	annotate := func(err error) {
		rt.endTrace(err)
		span.Annotate("events", strconv.FormatInt(eng.EventsExecuted(), 10))
		span.Annotate("sim_time", strconv.FormatFloat(eng.Now(), 'g', -1, 64))
		span.Annotate("processes", strconv.Itoa(sp.Processes))
		span.Annotate("backend", "lowered")
		span.Annotate("mode", "engine")
		span.End()
	}
	if cfg.RunLimit > 0 {
		if _, err := eng.RunUntil(cfg.RunLimit); err != nil {
			annotate(err)
			return nil, fmt.Errorf("lower: %w", err)
		}
	} else if _, err := eng.Run(); err != nil {
		annotate(err)
		return nil, fmt.Errorf("lower: %w", err)
	}
	annotate(nil)

	res := rt.result(sp, mach.CPUUtilization)
	res.Stats = eng
	return res, nil
}
