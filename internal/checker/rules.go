package checker

import (
	"prophet/internal/expr"
	"prophet/internal/profile"
	"prophet/internal/uml"
)

// wellKnownVars are the names that are always bound during model
// evaluation, even though they are not declared as model variables: the
// execute() context parameters (paper, Figure 8b: uid, pid, tid) and the
// system parameters of the Performance Estimator (paper, Section 2.2: the
// number of computational nodes, processors per node, processes, threads).
var wellKnownVars = map[string]bool{
	"uid": true, "pid": true, "tid": true,
	"nodes": true, "processors": true, "processes": true, "threads": true,
}

// quote quotes an expression source in a diagnostic; a long source is
// cut to its head (expr.QuoteSource).
func quote(src string) string { return expr.QuoteSource(src, 0) }

// ruleVisitor is the per-element interface of a fused rule: the checker
// performs a single walk of the model (model, then per diagram: the
// diagram, its nodes, its edges) and dispatches each element to every
// enabled rule's callbacks. Any callback may be nil. finish runs after the
// walk completes, when shared state (e.g. the known-variable set, which
// accumulates loop variables during the walk) is final; rules whose
// diagnostics depend on it buffer elements during the walk and emit there.
type ruleVisitor struct {
	model        func(m *uml.Model)
	enterDiagram func(d *uml.Diagram)
	node         func(d *uml.Diagram, n uml.Node)
	edge         func(d *uml.Diagram, e *uml.Edge)
	leaveDiagram func(d *uml.Diagram)
	finish       func()
}

// allRules is the rule registry, in execution order. Diagnostics are
// buffered per rule and concatenated in this order, so the fused
// single-walk engine reports byte-identically to the historical
// rule-at-a-time engine.
var allRules = []rule{
	{
		name:            "single-initial",
		doc:             "every diagram has exactly one initial node",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			initials, nodes := 0, 0
			return ruleVisitor{
				enterDiagram: func(d *uml.Diagram) { initials, nodes = 0, 0 },
				node: func(d *uml.Diagram, n uml.Node) {
					nodes++
					if n.Kind() == uml.KindInitial {
						initials++
					}
				},
				leaveDiagram: func(d *uml.Diagram) {
					switch {
					case initials == 0 && nodes > 0:
						ctx.add(d, "diagram %q has no initial node", d.Name())
					case initials > 1:
						ctx.add(d, "diagram %q has %d initial nodes", d.Name(), initials)
					}
				},
			}
		},
	},
	{
		name:            "has-final",
		doc:             "every non-empty diagram has at least one final node",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			finals, nodes := 0, 0
			return ruleVisitor{
				enterDiagram: func(d *uml.Diagram) { finals, nodes = 0, 0 },
				node: func(d *uml.Diagram, n uml.Node) {
					nodes++
					if n.Kind() == uml.KindFinal {
						finals++
					}
				},
				leaveDiagram: func(d *uml.Diagram) {
					if nodes > 0 && finals == 0 {
						ctx.add(d, "diagram %q has no final node", d.Name())
					}
				},
			}
		},
	},
	{
		name:            "initial-edges",
		doc:             "initial nodes have no incoming and exactly one outgoing edge",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() != uml.KindInitial {
						return
					}
					if in := len(d.Incoming(n.ID())); in > 0 {
						ctx.add(n, "initial node has %d incoming edge(s)", in)
					}
					if out := len(d.Outgoing(n.ID())); out != 1 {
						ctx.add(n, "initial node has %d outgoing edge(s), want 1", out)
					}
				},
			}
		},
	},
	{
		name:            "final-edges",
		doc:             "final nodes have no outgoing edges",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() != uml.KindFinal {
						return
					}
					if out := len(d.Outgoing(n.ID())); out > 0 {
						ctx.add(n, "final node has %d outgoing edge(s)", out)
					}
				},
			}
		},
	},
	{
		name:            "decision-guards",
		doc:             "decision branches are either all guarded (<=1 'else') or all weighted (probabilistic)",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() != uml.KindDecision {
						return
					}
					out := d.Outgoing(n.ID())
					if len(out) < 2 {
						ctx.add(n, "decision node has %d outgoing edge(s), want >=2", len(out))
					}
					guarded, weighted := 0, 0
					elses := 0
					for _, e := range out {
						switch {
						case e.Guard() != "":
							guarded++
							if e.IsElse() {
								elses++
							}
						case e.Weight() > 0:
							weighted++
						default:
							ctx.add(e, "edge out of decision node has neither guard nor positive weight")
						}
					}
					if guarded > 0 && weighted > 0 {
						ctx.add(n, "decision node mixes guarded and weighted branches")
					}
					if elses > 1 {
						ctx.add(n, "decision node has %d 'else' branches, want at most 1", elses)
					}
				},
			}
		},
	},
	{
		name:            "weights-sum",
		doc:             "branch weights of a probabilistic decision should sum to 1 (they are normalized, but a different sum usually signals a typo)",
		defaultSeverity: Info,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() != uml.KindDecision {
						return
					}
					out := d.Outgoing(n.ID())
					if len(out) == 0 || out[0].Guard() != "" || out[0].Weight() <= 0 {
						return // guarded decision; decision-guards covers it
					}
					sum := 0.0
					allWeighted := true
					for _, e := range out {
						if e.Weight() <= 0 || e.Guard() != "" {
							allWeighted = false
							break
						}
						sum += e.Weight()
					}
					if allWeighted && (sum < 0.999 || sum > 1.001) {
						ctx.add(n, "branch weights sum to %g, not 1 (they will be normalized)", sum)
					}
				},
			}
		},
	},
	{
		name:            "single-successor",
		doc:             "non-branching nodes have at most one outgoing edge",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch n.Kind() {
					case uml.KindDecision, uml.KindFork, uml.KindFinal:
						return
					}
					if out := len(d.Outgoing(n.ID())); out > 1 {
						ctx.add(n, "%s %q has %d outgoing edges; only decision and fork nodes may branch",
							n.Kind(), n.Name(), out)
					}
				},
			}
		},
	},
	{
		name:            "fork-join-arity",
		doc:             "fork nodes have >=2 outgoing edges and join nodes >=2 incoming",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch n.Kind() {
					case uml.KindFork:
						if out := len(d.Outgoing(n.ID())); out < 2 {
							ctx.add(n, "fork node has %d outgoing edge(s), want >=2", out)
						}
					case uml.KindJoin:
						if in := len(d.Incoming(n.ID())); in < 2 {
							ctx.add(n, "join node has %d incoming edge(s), want >=2", in)
						}
					}
				},
			}
		},
	},
	{
		// A fork with no convergence node whose branches still meet would
		// run the flow after the meeting point once per branch: every
		// backend runs each branch to its convergence node, or to the end
		// of the flow when there is none.
		name:            "fork-closes",
		doc:             "branches of a fork that meet close where every path from the fork passes",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() != uml.KindFork || d.Convergence(n) != nil {
						return
					}
					if meet := branchesMeet(d, n); meet != nil {
						ctx.add(n, "fork %q has branches that meet at %q, but not every path from the fork passes through it",
							n.Name(), meet.Name())
					}
				},
			}
		},
	},
	{
		name:            "reachable",
		doc:             "every node is reachable from its diagram's initial node",
		defaultSeverity: Warning,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				leaveDiagram: func(d *uml.Diagram) {
					ini := d.Initial()
					if ini == nil {
						return // single-initial already reports this
					}
					seen := d.Reachable(ini)
					for i, n := range d.Nodes() {
						if !seen[i] {
							ctx.add(n, "node %q is unreachable from the initial node", n.Name())
						}
					}
				},
			}
		},
	},
	{
		name:            "body-exists",
		doc:             "activity and loop bodies reference existing diagrams",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch x := n.(type) {
					case *uml.ActivityNode:
						if x.Body() == "" {
							ctx.add(n, "activity %q has no body diagram", x.Name())
						} else if ctx.model.DiagramByName(x.Body()) == nil {
							ctx.add(n, "activity %q references unknown diagram %q", x.Name(), x.Body())
						}
					case *uml.LoopNode:
						if x.Body() == "" {
							ctx.add(n, "loop %q has no body diagram", x.Name())
						} else if ctx.model.DiagramByName(x.Body()) == nil {
							ctx.add(n, "loop %q references unknown diagram %q", x.Name(), x.Body())
						}
					}
				},
			}
		},
	},
	{
		name:            "no-activity-cycles",
		doc:             "activity/loop nesting is acyclic (an activity may not, transitively, contain itself)",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			// Diagram -> referenced-diagram edges, collected during the walk.
			refs := map[string][]string{}
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch x := n.(type) {
					case *uml.ActivityNode:
						if x.Body() != "" {
							refs[d.Name()] = append(refs[d.Name()], x.Body())
						}
					case *uml.LoopNode:
						if x.Body() != "" {
							refs[d.Name()] = append(refs[d.Name()], x.Body())
						}
					}
				},
				finish: func() {
					const (
						white = 0
						gray  = 1
						black = 2
					)
					var color map[string]int
					var visit func(name string) bool // returns true when a cycle is found
					visit = func(name string) bool {
						switch color[name] {
						case gray:
							return true
						case black:
							return false
						}
						color[name] = gray
						for _, next := range refs[name] {
							if visit(next) {
								color[name] = black
								return true
							}
						}
						color[name] = black
						return false
					}
					for _, d := range ctx.model.Diagrams() {
						color = map[string]int{}
						if visit(d.Name()) {
							ctx.add(d, "diagram %q participates in a cyclic activity nesting", d.Name())
						}
					}
				},
			}
		},
	},
	{
		name:            "guards-parse",
		doc:             "edge guards are valid expressions over declared names",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			// Guarded edges are buffered and checked at finish, once the
			// known-variable set has absorbed every loop variable.
			var guarded []*uml.Edge
			return ruleVisitor{
				edge: func(d *uml.Diagram, e *uml.Edge) {
					if e.Guard() != "" && !e.IsElse() {
						guarded = append(guarded, e)
					}
				},
				finish: func() {
					known := ctx.shared.known
					for _, e := range guarded {
						p := ctx.shared.parse(e.Guard())
						if p.err != nil {
							ctx.add(e, "guard %s does not parse: %v", quote(e.Guard()), p.err)
							continue
						}
						for _, v := range p.vars {
							if !known[v] {
								ctx.add(e, "guard %s references undeclared variable %q", quote(e.Guard()), v)
							}
						}
					}
				},
			}
		},
	},
	{
		name:            "cost-functions",
		doc:             "cost-function expressions parse and reference defined functions",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			// Nodes carrying expressions are buffered and checked at finish,
			// for the same reason as guards-parse.
			var carriers []uml.Node
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch x := n.(type) {
					case *uml.ActionNode:
						if x.CostFunc() != "" {
							carriers = append(carriers, n)
						}
					case *uml.ActivityNode:
						if x.CostFunc() != "" {
							carriers = append(carriers, n)
						}
					case *uml.LoopNode:
						if x.Count() != "" {
							carriers = append(carriers, n)
						}
					}
				},
				finish: func() {
					known := ctx.shared.known
					// checkNames validates the calls and vars of one expression.
					checkNames := func(e uml.Element, what, src string, names exprNames, extraVars map[string]bool) {
						for _, name := range names.calls {
							if expr.IsBuiltin(name) {
								continue
							}
							if _, ok := ctx.model.Function(name); !ok {
								ctx.add(e, "%s %s calls undefined function %q", what, quote(src), name)
							}
						}
						for _, v := range names.vars {
							if !known[v] && !extraVars[v] {
								ctx.add(e, "%s %s references undeclared variable %q", what, quote(src), v)
							}
						}
					}
					// stochastic marks the sources that may be distribution
					// literals (costs and loop counts; see expr.ParseDist): for
					// those, a whole-source constructor call is not an undefined
					// function — its argument expressions are validated instead.
					checkExpr := func(e uml.Element, what, src string, extraVars map[string]bool, stochastic bool) {
						if src == "" {
							return
						}
						p := ctx.shared.parse(src)
						if p.err != nil {
							ctx.add(e, "%s %s does not parse: %v", what, quote(src), p.err)
							return
						}
						if stochastic && p.dist {
							if _, defined := ctx.model.Function(p.distName); !defined {
								for _, a := range p.args {
									checkNames(e, what, src, a, extraVars)
								}
								return
							}
						}
						checkNames(e, what, src, p.exprNames, extraVars)
					}
					for _, node := range carriers {
						switch x := node.(type) {
						case *uml.ActionNode:
							checkExpr(node, "cost function", x.CostFunc(), nil, true)
						case *uml.ActivityNode:
							checkExpr(node, "cost function", x.CostFunc(), nil, true)
						case *uml.LoopNode:
							checkExpr(node, "loop count", x.Count(), nil, true)
						}
					}
					for _, f := range ctx.model.Functions() {
						params := map[string]bool{}
						for _, p := range f.Params {
							params[p.Name] = true
						}
						// Attribute function-body findings to the model root: the
						// function is a model property, not a diagram element.
						checkExpr(ctx.model, "body of function "+f.Name, f.Body, params, false)
					}
				},
			}
		},
	},
	{
		name:            "profile-conformance",
		doc:             "stereotype applications conform to the profile (base class, tag types, constraints)",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			// The checker's walk order (model, then per diagram: diagram,
			// nodes, edges) matches uml.Walk, which this rule historically
			// ran itself.
			validate := func(e uml.Element) {
				for _, err := range ctx.registry.Validate(e) {
					ctx.add(e, "%v", err)
				}
			}
			return ruleVisitor{
				model:        func(m *uml.Model) { validate(m) },
				enterDiagram: func(d *uml.Diagram) { validate(d) },
				node:         func(d *uml.Diagram, n uml.Node) { validate(n) },
				edge:         func(d *uml.Diagram, e *uml.Edge) { validate(e) },
			}
		},
	},
	{
		name:            "stochastic-tags",
		doc:             "distribution literals appear only in expression tags that accept them",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			// A whole-source constructor call (normal(mu, sigma), uniform(lo,
			// hi), empirical(...)) denotes a random draw only where the tag
			// definition is marked Stochastic (costs, loop counts). In any
			// other expression tag it would evaluate as an ordinary —
			// undefined — function call at runtime; report it here with a
			// message that names the actual problem. exp(x) stays exempt:
			// outside stochastic tags it keeps its builtin e^x meaning.
			check := func(e uml.Element) {
				stName := e.Stereotype()
				if stName == "" || ctx.registry == nil {
					return
				}
				st, ok := ctx.registry.Lookup(stName)
				if !ok {
					return // profile-conformance reports unknown stereotypes
				}
				for _, td := range st.Tags {
					if td.Type != profile.TagExpr || td.Stochastic {
						continue
					}
					raw, set := e.Tag(td.Name)
					if !set {
						continue
					}
					p := ctx.shared.parse(raw)
					if p.err != nil {
						continue // profile-conformance reports the parse error
					}
					if !p.dist || expr.IsBuiltin(p.distName) {
						continue
					}
					if _, defined := ctx.model.Function(p.distName); defined {
						continue // a model-defined function shadows the constructor
					}
					ctx.add(e, "tag %q of <<%s>> does not accept a distribution literal %s (draws are only legal in stochastic tags such as %q)",
						td.Name, stName, quote(raw), profile.TagTime)
				}
			}
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) { check(n) },
			}
		},
	},
	{
		name:            "perf-element-names",
		doc:             "performance modeling elements have unique non-empty names (they become C++ identifiers)",
		defaultSeverity: Error,
		visit: func(ctx *ruleContext) ruleVisitor {
			seen := make(map[string]uml.Element, ctx.model.Stats().Nodes)
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if !ctx.registry.IsPerformanceElement(n) {
						return
					}
					if n.Name() == "" {
						ctx.add(n, "performance modeling element has no name")
						return
					}
					if prev, dup := seen[n.Name()]; dup {
						ctx.add(n, "performance element name %q already used by element %s",
							n.Name(), prev.ID())
						return
					}
					seen[n.Name()] = n
				},
			}
		},
	},
	{
		name:            "mpi-pairing",
		doc:             "models with receives should have sends (and vice versa), or every receive will deadlock",
		defaultSeverity: Warning,
		visit: func(ctx *ruleContext) ruleVisitor {
			var sends, recvs []uml.Element
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					switch n.Stereotype() {
					case "mpi_send":
						sends = append(sends, n)
					case "mpi_recv":
						recvs = append(recvs, n)
					case "mpi_sendrecv": // balanced by construction
						sends = append(sends, n)
						recvs = append(recvs, n)
					}
				},
				finish: func() {
					if len(recvs) > 0 && len(sends) == 0 {
						ctx.add(recvs[0], "model contains %d mpi_recv element(s) but no mpi_send: receives can never complete", len(recvs))
					}
					if len(sends) > 0 && len(recvs) == 0 {
						ctx.add(sends[0], "model contains %d mpi_send element(s) but no mpi_recv: messages are never consumed", len(sends))
					}
				},
			}
		},
	},
	{
		name:            "unannotated-actions",
		doc:             "actions without a stereotype do not contribute to the performance model",
		defaultSeverity: Info,
		visit: func(ctx *ruleContext) ruleVisitor {
			return ruleVisitor{
				node: func(d *uml.Diagram, n uml.Node) {
					if n.Kind() == uml.KindAction && n.Stereotype() == "" {
						ctx.add(n, "action %q carries no stereotype and will be ignored by the transformation", n.Name())
					}
				},
			}
		},
	},
}

// branchesMeet returns a node that two branches of fork n both reach, or
// nil when the branches are disjoint: of the first branch that meets an
// earlier one, the first shared node in position order.
func branchesMeet(d *uml.Diagram, n uml.Node) uml.Node {
	seen := make([]bool, len(d.Nodes())) // reached by an earlier branch
	for _, e := range d.Outgoing(n.ID()) {
		if head := d.Node(e.To()); head != nil {
			for i, r := range d.Reachable(head) {
				if r && seen[i] {
					return d.Nodes()[i]
				}
				seen[i] = seen[i] || r
			}
		}
	}
	return nil
}
