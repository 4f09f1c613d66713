// Package analytic predicts a model's expected makespan in closed form,
// with no simulation engine: it walks the flow graph the way the
// generated C++ program executes — guard chains in edge order, loop
// bodies repeated count times, fork branches summed (a single processor
// serializes them), code fragments applied before each element's
// execute() — and propagates the exact mean and variance of the elapsed
// time through every construct.
//
// Deterministic models solve to their exact makespan (the conformance
// analytic-agreement oracle pins this against the simulator to 1e-9).
// Stochastic constructs solve to closed-form moments:
//
//   - distribution-literal costs (expr.ParseDist) contribute their exact
//     mean and variance, including the truncation at zero of normal
//     draws (sim.Stream.Normal);
//   - weighted decisions become probability mixtures over their
//     branches: mean = Σ pᵢ·mᵢ, E[X²] = Σ pᵢ·(vᵢ+mᵢ²);
//   - independent sequential contributions add in both moments.
//
// Everything else — messaging and threading stereotypes, multi-process
// systems, distribution-valued loop counts, state mutation inside a
// weighted branch — is outside the closed-form class and returns an
// error, which mode=auto treats as "fall back to simulation".
//
// The solver answers in microseconds where a simulation run takes
// milliseconds (cmd/benchrunner records the ratio in BENCH_runner.json),
// which is what makes mode=analytic a serving-layer fast path.
package analytic

import (
	"fmt"
	"strings"

	"prophet/internal/expr"
	"prophet/internal/machine"
	"prophet/internal/profile"
	"prophet/internal/uml"
)

// Config parameterizes one solve, mirroring the simulation configuration
// so the two backends answer the same question.
type Config struct {
	// Params are the system parameters; the zero value means
	// machine.DefaultParams(). Only single-process single-processor
	// systems are in the analytic class.
	Params machine.SystemParams
	// Globals overrides/provides values for global model variables.
	Globals map[string]float64
	// MaxSteps bounds element executions (0 = the interpreter's 50e6
	// default), so a diverging cyclic model fails instead of hanging.
	MaxSteps int
}

// Result is the closed-form answer.
type Result struct {
	// Mean is the expected makespan. For a deterministic model it is the
	// exact makespan every simulation run produces.
	Mean float64
	// Variance is the exact variance of the makespan under the model's
	// distributions and branch weights (0 for deterministic models).
	Variance float64
	// Stochastic reports whether any stochastic construct (distribution
	// cost or weighted decision) contributed: if false, Mean is exact.
	Stochastic bool
	// Globals holds the final values of the global model variables after
	// the walk (branch-frozen, so identical across stochastic outcomes).
	Globals map[string]float64
	// Steps counts element executions, the same work measure the
	// interpreter's runaway guard uses.
	Steps int
}

// Eligible reports whether the model and system parameters are in the
// analytic class, by quick structural scan: a single process on a single
// processor, and only plain flow constructs (no messaging or threading
// stereotypes). Eligible is the mode=auto pre-filter; Solve itself may
// still reject (e.g. stochastic loop counts), which auto treats as a
// fallback to simulation.
func Eligible(m *uml.Model, sp machine.SystemParams) bool {
	if sp == (machine.SystemParams{}) {
		sp = machine.DefaultParams()
	}
	if sp.Processes != 1 || sp.Nodes != 1 || sp.ProcessorsPerNode != 1 {
		return false
	}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			switch x := n.(type) {
			case *uml.ActionNode:
				if st := x.Stereotype(); st != "" && st != profile.ActionPlus {
					return false
				}
			case *uml.ActivityNode:
				if x.Stereotype() != profile.ActivityPlus {
					return false
				}
			}
		}
	}
	return true
}

// Solve computes the closed-form makespan moments of the model under the
// configuration.
func Solve(m *uml.Model, cfg Config) (*Result, error) {
	defs := make([]expr.Def, 0, len(m.Functions()))
	for _, f := range m.Functions() {
		d := expr.Def{Name: f.Name, Body: f.Body}
		for _, p := range f.Params {
			d.Params = append(d.Params, p.Name)
		}
		defs = append(defs, d)
	}
	lib, err := expr.NewLibrary(defs)
	if err != nil {
		return nil, fmt.Errorf("analytic: %w", err)
	}

	sp := cfg.Params
	if sp == (machine.SystemParams{}) {
		sp = machine.DefaultParams()
	}
	if sp.Processes != 1 || sp.Nodes != 1 || sp.ProcessorsPerNode != 1 {
		return nil, fmt.Errorf("analytic: system %+v is not single-process single-processor", sp)
	}

	w := &walker{
		model:   m,
		sp:      sp.Env(),
		globals: map[string]float64{},
		locals:  map[string]float64{"pid": 0, "tid": 0, "uid": 0},
		// The same runaway guard the interpreter uses, so a cyclic model
		// that diverges fails identically on both backends.
		maxSteps: cfg.MaxSteps,
		exprs:    map[string]*expr.Compiled{},
		dists:    map[string]*expr.Dist{},
		profiles: map[string]*bodyProfile{},
	}
	w.env = lib.Bind(w)
	if w.maxSteps <= 0 {
		w.maxSteps = 50_000_000
	}
	for _, v := range m.VariablesIn(uml.ScopeGlobal) {
		w.globals[v.Name] = 0
		if v.Init != "" {
			val, err := w.evalSrc(v.Init)
			if err != nil {
				return nil, fmt.Errorf("analytic: initialize %s: %w", v.Name, err)
			}
			w.globals[v.Name] = val
		}
	}
	for k, v := range cfg.Globals {
		w.globals[k] = v
	}
	for _, v := range m.VariablesIn(uml.ScopeLocal) {
		w.locals[v.Name] = 0
		if v.Init != "" {
			val, err := w.evalSrc(v.Init)
			if err == nil {
				w.locals[v.Name] = val
			}
		}
	}

	main := m.Main()
	if main == nil {
		return nil, fmt.Errorf("analytic: model %q has no main diagram", m.Name())
	}
	mom, err := w.walkDiagram(main)
	if err != nil {
		return nil, err
	}
	return &Result{
		Mean:       mom.mean,
		Variance:   mom.varv,
		Stochastic: w.stochastic,
		Globals:    w.globals,
		Steps:      w.steps,
	}, nil
}

// moments is an elapsed-time contribution: mean and variance of an
// independent additive term. Sequential composition adds both fields.
type moments struct {
	mean, varv float64
}

func (m *moments) add(o moments) {
	m.mean += o.mean
	m.varv += o.varv
}

// walker is the solver state: variable frames plus the moments
// accumulator threading through walk calls.
type walker struct {
	model *uml.Model
	// env resolves expressions: the model's functions over the walker's
	// variable frames, bound once for every evaluation.
	env      expr.Env
	sp       map[string]float64
	globals  map[string]float64
	locals   map[string]float64
	steps    int
	maxSteps int
	// stochastic latches once any distribution draw or weighted decision
	// contributes.
	stochastic bool
	// frozen > 0 while walking the branches of a weighted decision:
	// assignments there would make the mixture depend on which branch
	// ran, which is not closed-form, so they are an error.
	frozen int
	// exprs/dists memoize compilation per distinct source string.
	exprs map[string]*expr.Compiled
	dists map[string]*expr.Dist
	// profiles memoizes one read/write summary per diagram for the
	// loop-invariance collapse; fnVars is the lazy union of free
	// variables over every model-defined function body.
	profiles map[string]*bodyProfile
	fnVars   map[string]bool
}

// bodyProfile summarizes a diagram subtree for the loop-invariance
// collapse: whether it is free of code fragments (writes nothing) and
// which variable names its expressions can read.
type bodyProfile struct {
	pure bool
	vars map[string]bool
}

// functionVars returns the union of free variables across every
// model-defined function body — the over-approximation of what a call
// into the expression library can read.
func (w *walker) functionVars() map[string]bool {
	if w.fnVars != nil {
		return w.fnVars
	}
	w.fnVars = map[string]bool{}
	for _, f := range w.model.Functions() {
		if n, err := expr.Parse(f.Body); err == nil {
			for _, v := range expr.Vars(n) {
				w.fnVars[v] = true
			}
		}
	}
	return w.fnVars
}

// profileDiagram computes (and memoizes) the read/write summary of a
// diagram and everything it calls. A cyclic diagram reference sees the
// in-progress profile, which is harmless: a cyclic call graph fails
// during the walk long before any collapse could apply. Unparsable
// sources mark the profile impure so the walk surfaces the real error.
func (w *walker) profileDiagram(d *uml.Diagram) *bodyProfile {
	if p, ok := w.profiles[d.Name()]; ok {
		return p
	}
	p := &bodyProfile{pure: true, vars: map[string]bool{}}
	w.profiles[d.Name()] = p
	src := func(s string) {
		if s == "" {
			return
		}
		n, err := expr.Parse(s)
		if err != nil {
			p.pure = false
			return
		}
		for _, v := range expr.Vars(n) {
			p.vars[v] = true
		}
		for _, c := range expr.Calls(n) {
			if _, ok := w.model.Function(c); ok {
				for v := range w.functionVars() {
					p.vars[v] = true
				}
			}
		}
	}
	sub := func(name string) {
		body := w.model.DiagramByName(name)
		if body == nil {
			p.pure = false
			return
		}
		bp := w.profileDiagram(body)
		if !bp.pure {
			p.pure = false
		}
		for v := range bp.vars {
			p.vars[v] = true
		}
	}
	for _, n := range d.Nodes() {
		switch x := n.(type) {
		case *uml.ActionNode:
			if x.Code() != "" {
				p.pure = false
			}
			src(x.CostFunc())
		case *uml.ActivityNode:
			if x.Code() != "" {
				p.pure = false
			}
			src(x.CostFunc())
			sub(x.Body())
		case *uml.LoopNode:
			src(x.Count())
			sub(x.Body())
		}
	}
	for _, e := range d.Edges() {
		if !e.IsElse() {
			src(e.Guard())
		}
	}
	return p
}

// Var implements expr.Env variable lookup: locals shadow globals shadow
// system parameters, mirroring the generated program's scoping.
func (w *walker) Var(name string) (float64, bool) {
	if v, ok := w.locals[name]; ok {
		return v, true
	}
	if v, ok := w.globals[name]; ok {
		return v, true
	}
	v, ok := w.sp[name]
	return v, ok
}

func (w *walker) Func(string) (expr.Func, bool) { return nil, false }

func (w *walker) compileSrc(src string) (*expr.Compiled, error) {
	if c, ok := w.exprs[src]; ok {
		return c, nil
	}
	c, err := expr.CompileStringFolded(src)
	if err != nil {
		return nil, err
	}
	w.exprs[src] = c
	return c, nil
}

func (w *walker) evalSrc(src string) (float64, error) {
	c, err := w.compileSrc(src)
	if err != nil {
		return 0, err
	}
	return c.Eval(w.env)
}

// parseDist recognizes src as a distribution literal, honoring
// model-defined function shadowing like interp.Compile.
func (w *walker) parseDist(src string) (*expr.Dist, bool) {
	if d, ok := w.dists[src]; ok {
		return d, d != nil
	}
	d, ok := expr.ParseDist(src)
	if ok {
		if _, defined := w.model.Function(d.Kind.String()); defined {
			d, ok = nil, false
		}
	}
	w.dists[src] = d
	return d, ok
}

func (w *walker) assign(name string, val float64) error {
	if w.frozen > 0 {
		return fmt.Errorf("analytic: assignment to %q inside a weighted branch is not closed-form", name)
	}
	if _, ok := w.globals[name]; ok {
		w.globals[name] = val
		return nil
	}
	w.locals[name] = val
	return nil
}

func (w *walker) step(n uml.Node) error {
	w.steps++
	if w.steps > w.maxSteps {
		return fmt.Errorf("analytic: exceeded %d element executions at %q (unbounded loop?)", w.maxSteps, n.Name())
	}
	return nil
}

// walkDiagram evaluates a diagram from its initial node and returns the
// time moments it consumes. Empty diagrams take no time.
func (w *walker) walkDiagram(d *uml.Diagram) (moments, error) {
	ini := d.Initial()
	if ini == nil {
		if len(d.Nodes()) == 0 {
			return moments{}, nil
		}
		return moments{}, fmt.Errorf("analytic: diagram %q has no initial node", d.Name())
	}
	next, err := w.successor(d, ini)
	if err != nil {
		return moments{}, err
	}
	return w.walkSeq(d, next, nil)
}

// walkSeq accumulates moments from cur until a final node or stop
// (exclusive).
func (w *walker) walkSeq(d *uml.Diagram, cur uml.Node, stop uml.Node) (moments, error) {
	var total moments
	for cur != nil {
		if stop != nil && cur.ID() == stop.ID() {
			return total, nil
		}
		var err error
		switch n := cur.(type) {
		case *uml.ControlNode:
			switch n.Kind() {
			case uml.KindFinal:
				return total, nil
			case uml.KindMerge, uml.KindJoin:
				cur, err = w.successor(d, n)
			case uml.KindDecision:
				var dt moments
				dt, cur, err = w.branch(d, n)
				total.add(dt)
			case uml.KindFork:
				var dt moments
				dt, cur, err = w.fork(d, n)
				total.add(dt)
			default:
				return moments{}, fmt.Errorf("analytic: diagram %q: unexpected %v mid-flow", d.Name(), n.Kind())
			}
		case *uml.ActionNode:
			if err := w.step(n); err != nil {
				return moments{}, err
			}
			dt, aerr := w.action(n)
			if aerr != nil {
				return moments{}, aerr
			}
			total.add(dt)
			cur, err = w.successor(d, n)
		case *uml.ActivityNode:
			if err := w.step(n); err != nil {
				return moments{}, err
			}
			dt, aerr := w.activity(n)
			if aerr != nil {
				return moments{}, aerr
			}
			total.add(dt)
			cur, err = w.successor(d, n)
		case *uml.LoopNode:
			if err := w.step(n); err != nil {
				return moments{}, err
			}
			dt, lerr := w.loop(n)
			if lerr != nil {
				return moments{}, lerr
			}
			total.add(dt)
			cur, err = w.successor(d, n)
		default:
			return moments{}, fmt.Errorf("analytic: unknown node type %T", cur)
		}
		if err != nil {
			return moments{}, err
		}
	}
	return total, nil
}

func (w *walker) successor(d *uml.Diagram, n uml.Node) (uml.Node, error) {
	out := d.Outgoing(n.ID())
	switch len(out) {
	case 0:
		return nil, nil
	case 1:
		next := d.Node(out[0].To())
		if next == nil {
			return nil, fmt.Errorf("analytic: diagram %q: dangling edge from %q", d.Name(), n.Name())
		}
		return next, nil
	}
	return nil, fmt.Errorf("analytic: diagram %q: %v %q has %d successors", d.Name(), n.Kind(), n.Name(), len(out))
}

// branch evaluates a decision. A guarded decision follows the first true
// guard in edge order, falling back to the else edge — the generated
// if/else-if chain — contributing no time itself. A weighted decision
// becomes a closed-form probability mixture over its branches.
func (w *walker) branch(d *uml.Diagram, n *uml.ControlNode) (moments, uml.Node, error) {
	out := d.Outgoing(n.ID())
	if len(out) > 0 && out[0].Guard() == "" && out[0].Weight() > 0 {
		dt, next, err := w.weighted(d, n, out)
		return dt, next, err
	}
	var elseEdge *uml.Edge
	for _, e := range out {
		if e.IsElse() {
			elseEdge = e
			continue
		}
		if e.Guard() == "" {
			return moments{}, nil, fmt.Errorf("analytic: diagram %q: decision %q mixes weighted and guarded branches", d.Name(), n.Name())
		}
		v, err := w.evalSrc(e.Guard())
		if err != nil {
			return moments{}, nil, fmt.Errorf("analytic: guard %q: %w", e.Guard(), err)
		}
		if expr.Truthy(v) {
			return moments{}, d.Node(e.To()), nil
		}
	}
	if elseEdge != nil {
		return moments{}, d.Node(elseEdge.To()), nil
	}
	return moments{}, nil, fmt.Errorf("analytic: diagram %q: no guard of decision %q is true and there is no else branch", d.Name(), n.Name())
}

// weighted solves a probabilistic decision as a mixture: each branch is
// walked up to the decision's convergence node (uml.Diagram.Convergence;
// the end of the flow when it has none), and the mixture moments are mean = Σ pᵢ·mᵢ and Var = Σ pᵢ·(vᵢ+mᵢ²) − mean². Branches
// must not mutate model state (assignments are frozen), so the walk
// continues from the convergence in a state independent of the branch
// taken.
func (w *walker) weighted(d *uml.Diagram, n *uml.ControlNode, out []*uml.Edge) (moments, uml.Node, error) {
	var totalW float64
	for _, e := range out {
		if e.Guard() != "" || e.Weight() <= 0 {
			return moments{}, nil, fmt.Errorf("analytic: diagram %q: decision %q mixes weighted and guarded branches", d.Name(), n.Name())
		}
		totalW += e.Weight()
	}
	w.stochastic = true
	conv := d.Convergence(n)
	var mean, e2 float64
	w.frozen++
	for _, e := range out {
		head := d.Node(e.To())
		if head == nil {
			w.frozen--
			return moments{}, nil, fmt.Errorf("analytic: diagram %q: dangling decision edge", d.Name())
		}
		bm, err := w.walkSeq(d, head, conv)
		if err != nil {
			w.frozen--
			return moments{}, nil, err
		}
		p := e.Weight() / totalW
		mean += p * bm.mean
		e2 += p * (bm.varv + bm.mean*bm.mean)
	}
	w.frozen--
	varv := e2 - mean*mean
	if varv < 0 {
		varv = 0
	}
	return moments{mean: mean, varv: varv}, conv, nil
}

// fork walks each branch to the fork's convergence node and sums the
// branch moments: on a single processor the parallel branches serialize,
// so elapsed time at the join equals the total compute regardless of
// interleaving. Returns the node to continue from after the convergence.
func (w *walker) fork(d *uml.Diagram, n *uml.ControlNode) (moments, uml.Node, error) {
	out := d.Outgoing(n.ID())
	if len(out) < 2 {
		return moments{}, nil, fmt.Errorf("analytic: diagram %q: fork %q has %d branch(es)", d.Name(), n.Name(), len(out))
	}
	conv := d.Convergence(n)
	var total moments
	for _, e := range out {
		head := d.Node(e.To())
		if head == nil {
			return moments{}, nil, fmt.Errorf("analytic: diagram %q: dangling fork edge", d.Name())
		}
		dt, err := w.walkSeq(d, head, conv)
		if err != nil {
			return moments{}, nil, err
		}
		total.add(dt)
	}
	if conv != nil && conv.Kind() == uml.KindJoin {
		next, err := w.successor(d, conv)
		return total, next, err
	}
	return total, conv, nil
}

// action applies the element's code fragment, then charges its cost.
// Only plain <<action+>> elements are analytic; communication and
// threading stereotypes need the simulator.
func (w *walker) action(n *uml.ActionNode) (moments, error) {
	switch n.Stereotype() {
	case "":
		return moments{}, nil // not a performance modeling element
	case profile.ActionPlus:
	default:
		return moments{}, fmt.Errorf("analytic: element %q: stereotype <<%s>> is not analytic", n.Name(), n.Stereotype())
	}
	if err := w.applyCode(n.Code(), n.Name()); err != nil {
		return moments{}, err
	}
	return w.cost(n.CostFunc(), n)
}

func (w *walker) activity(n *uml.ActivityNode) (moments, error) {
	if st := n.Stereotype(); st != profile.ActivityPlus {
		return moments{}, fmt.Errorf("analytic: activity %q: stereotype <<%s>> is not analytic", n.Name(), st)
	}
	if err := w.applyCode(n.Code(), n.Name()); err != nil {
		return moments{}, err
	}
	total, err := w.cost(n.CostFunc(), n)
	if err != nil {
		return moments{}, err
	}
	body := w.model.DiagramByName(n.Body())
	if body == nil {
		return moments{}, fmt.Errorf("analytic: activity %q references unknown diagram %q", n.Name(), n.Body())
	}
	dt, err := w.walkDiagram(body)
	if err != nil {
		return moments{}, err
	}
	total.add(dt)
	return total, nil
}

// loop repeats the body count times. Iterations are walked one by one —
// loop-variable-dependent costs stay exact — and independent per-draw
// variances add across iterations. A distribution-valued count is not
// closed-form (the makespan becomes a random sum) and is rejected.
func (w *walker) loop(n *uml.LoopNode) (moments, error) {
	if _, ok := w.parseDist(n.Count()); ok {
		return moments{}, fmt.Errorf("analytic: loop %q: stochastic count %q is not closed-form", n.Name(), n.Count())
	}
	v, err := w.evalSrc(n.Count())
	if err != nil {
		return moments{}, fmt.Errorf("analytic: loop %q count: %w", n.Name(), err)
	}
	count := int(v)
	body := w.model.DiagramByName(n.Body())
	if body == nil {
		return moments{}, fmt.Errorf("analytic: loop %q references unknown diagram %q", n.Name(), n.Body())
	}
	saved, hadSaved := 0.0, false
	if n.Var() != "" {
		saved, hadSaved = w.locals[n.Var()]
	}
	restore := func() {
		if n.Var() != "" {
			if hadSaved {
				w.locals[n.Var()] = saved
			} else {
				delete(w.locals, n.Var())
			}
		}
	}
	var total moments
	// Loop-invariance collapse: a body that writes nothing and never
	// reads the loop variable contributes identical, independent moments
	// every iteration, so one walk plus replaying that value count times
	// replaces count walks — the fast path that makes large batch loops
	// answer in microseconds. The replay keeps the accumulation order
	// (and hence every last float bit) identical to the full walk, and
	// the step budget is still charged for every iteration, so a count
	// big enough to trip the interpreter's runaway guard fails here too.
	if count > 1 {
		if p := w.profileDiagram(body); p.pure && (n.Var() == "" || !p.vars[n.Var()]) {
			if err := w.step(n); err != nil {
				return moments{}, err
			}
			if n.Var() != "" {
				w.locals[n.Var()] = 0
			}
			before := w.steps
			one, err := w.walkDiagram(body)
			restore()
			if err != nil {
				return moments{}, err
			}
			perIter := w.steps - before + 1 // body plus the loop node's own step
			rest := count - 1
			if rest > (w.maxSteps-w.steps)/perIter {
				return moments{}, fmt.Errorf("analytic: exceeded %d element executions at %q (unbounded loop?)", w.maxSteps, n.Name())
			}
			w.steps += rest * perIter
			for i := 0; i < count; i++ {
				total.add(one)
			}
			return total, nil
		}
	}
	for i := 0; i < count; i++ {
		if err := w.step(n); err != nil {
			return moments{}, err
		}
		if n.Var() != "" {
			w.locals[n.Var()] = float64(i)
		}
		dt, err := w.walkDiagram(body)
		if err != nil {
			return moments{}, err
		}
		total.add(dt)
	}
	restore()
	return total, nil
}

// applyCode runs the assignment subset of a code fragment — `name =
// expression` statements separated by ';' or newlines, anything else
// being opaque documentation — exactly as the inlined fragment of the
// generated C++ executes before execute().
func (w *walker) applyCode(code, name string) error {
	for _, stmt := range strings.FieldsFunc(code, func(r rune) bool { return r == ';' || r == '\n' }) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || strings.HasPrefix(stmt, "//") {
			continue
		}
		eq := strings.IndexByte(stmt, '=')
		if eq <= 0 || eq+1 < len(stmt) && stmt[eq+1] == '=' ||
			stmt[eq-1] == '!' || stmt[eq-1] == '<' || stmt[eq-1] == '>' {
			continue
		}
		target := strings.TrimSpace(stmt[:eq])
		if !isIdentifier(target) {
			continue
		}
		c, err := w.compileSrc(strings.TrimSpace(stmt[eq+1:]))
		if err != nil {
			continue // non-expression right-hand sides are documentation
		}
		v, err := c.Eval(w.env)
		if err != nil {
			return fmt.Errorf("analytic: code of %q: %w", name, err)
		}
		if err := w.assign(target, v); err != nil {
			return err
		}
	}
	return nil
}

func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// cost evaluates the element's execution-time expression: the attached
// cost function, else the `time` tagged value, else zero. A distribution
// literal contributes its exact moments; anything else contributes its
// value with zero variance.
func (w *walker) cost(costFunc string, e uml.Element) (moments, error) {
	src := costFunc
	if src == "" {
		if raw, ok := e.Tag(profile.TagTime); ok {
			src = raw
		}
	}
	if src == "" {
		return moments{}, nil
	}
	if d, ok := w.parseDist(src); ok {
		w.stochastic = true
		mean, varv, err := d.Moments(w.env)
		if err != nil {
			return moments{}, fmt.Errorf("analytic: cost of %q: %w", e.Name(), err)
		}
		return moments{mean: mean, varv: varv}, nil
	}
	v, err := w.evalSrc(src)
	if err != nil {
		return moments{}, fmt.Errorf("analytic: cost of %q: %w", e.Name(), err)
	}
	return moments{mean: v}, nil
}
