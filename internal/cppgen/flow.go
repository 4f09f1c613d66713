package cppgen

import (
	"fmt"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// emitFlow is phase 6 of the Figure 5 algorithm (lines 29-35): it folds
// the main diagram's region tree (uml.Diagram.Regions) and emits, for each
// performance modeling element, the C++ code that invokes its execute()
// method, in the order specified by the UML model. Branch control flow
// maps to if/else-if statements (paper, Figure 8b) and the content of
// activities and loops is nested in place.
func (g *Generator) emitFlow(w *writer, m *uml.Model, names map[string]string) error {
	w.line("// -- Execution flow --")
	main := m.Main()
	if main == nil {
		return nil
	}
	f := &flowEmitter{model: m, names: names, w: w, exprs: map[string]rendered{}}
	return f.emitDiagram(main)
}

// flowEmitter carries the state of one flow fold.
type flowEmitter struct {
	model *uml.Model
	names map[string]string
	w     *writer
	// loopSeq numbers synthetic loop variables.
	loopSeq int
	// active guards against cyclic diagram nesting at emission time (the
	// checker also rejects it, but the generator must not recurse forever
	// on unchecked input).
	active []string
	// exprs holds every expression source rendered by this fold, so a
	// cost that many elements share is parsed once. It lives for one
	// Generate call.
	exprs map[string]rendered
}

// rendered is one expression source's C++ text or render error.
type rendered struct {
	text string
	err  error
}

// render is RenderExpr through the fold's memo; callers wrap the error
// with their own context.
func (f *flowEmitter) render(src string) (string, error) {
	r, ok := f.exprs[src]
	if !ok {
		r.text, r.err = RenderExpr(src)
		f.exprs[src] = r
	}
	return r.text, r.err
}

// emitDiagram emits the statements of a whole diagram by folding its
// region tree.
func (f *flowEmitter) emitDiagram(d *uml.Diagram) error {
	for _, name := range f.active {
		if name == d.Name() {
			return fmt.Errorf("cppgen: cyclic activity nesting through diagram %q", d.Name())
		}
	}
	f.active = append(f.active, d.Name())
	defer func() { f.active = f.active[:len(f.active)-1] }()
	r := d.Regions()
	return f.emit(&r)
}

// emit renders one region. Decisions map onto if/else-if chains (paper,
// Figure 8b lines 77-87), probabilistic decisions draw once from the
// runtime's pmp_rand(), and forks become PAR sections whose branches run
// until the common join.
func (f *flowEmitter) emit(r *uml.Region) error {
	switch r.Kind {
	case uml.RegionSeq:
		for i := range r.Items {
			if err := f.emit(&r.Items[i]); err != nil {
				return err
			}
		}
	case uml.RegionLeaf:
		switch n := r.Node.(type) {
		case *uml.ActionNode:
			return f.emitAction(n)
		case *uml.ActivityNode:
			return f.emitActivity(n)
		case *uml.LoopNode:
			return f.emitLoop(n)
		}
	case uml.RegionGuarded:
		for i := range r.Arms {
			a := &r.Arms[i]
			if a.Edge.IsElse() {
				f.w.line("} else {")
			} else {
				guard, err := f.render(a.Edge.Guard())
				if err != nil {
					return fmt.Errorf("cppgen: diagram %q: guard %q: %w", r.Node.Diagram().Name(), a.Edge.Guard(), err)
				}
				if i == 0 {
					f.w.put("if (", guard, ") {")
				} else {
					f.w.put("} else if (", guard, ") {")
				}
			}
			if err := f.emitArm(a); err != nil {
				return err
			}
		}
		f.w.line("}")
	case uml.RegionWeighted:
		var total float64
		for _, a := range r.Arms {
			total += a.Edge.Weight()
		}
		f.w.line("{")
		f.w.in()
		f.w.line("double pmp_r = pmp_rand() * %g; // weighted branch", total)
		acc := 0.0
		for i := range r.Arms {
			acc += r.Arms[i].Edge.Weight()
			switch {
			case i == 0:
				f.w.line("if (pmp_r < %g) {", acc)
			case i == len(r.Arms)-1:
				f.w.line("} else {")
			default:
				f.w.line("} else if (pmp_r < %g) {", acc)
			}
			if err := f.emitArm(&r.Arms[i]); err != nil {
				return err
			}
		}
		f.w.line("}")
		f.w.out()
		f.w.line("}")
	case uml.RegionFork:
		f.w.line("PAR_BEGIN // fork")
		for i := range r.Arms {
			f.w.line("PAR_BRANCH {")
			if err := f.emitArm(&r.Arms[i]); err != nil {
				return err
			}
			f.w.line("}")
		}
		f.w.line("PAR_END // join")
	case uml.RegionErr:
		if r.Err.Cycle {
			return fmt.Errorf("cppgen: %w; model loops with <<loop+>> elements", r.Err)
		}
		return fmt.Errorf("cppgen: %w", r.Err)
	}
	return nil
}

// emitArm emits one branch body one level deeper.
func (f *flowEmitter) emitArm(a *uml.Arm) error {
	f.w.in()
	err := f.emit(&a.Body)
	f.w.out()
	return err
}

// emitAction emits one element execution: the associated code fragment
// (paper, Figure 7b) followed by the execute() invocation with the
// element's cost function as argument (paper, Figure 8b line 76).
func (f *flowEmitter) emitAction(n *uml.ActionNode) error {
	if n.Stereotype() == "" {
		// Unstereotyped actions carry no performance semantics; the
		// checker reports them at Info severity and the generator skips
		// them (Figure 5 only includes selected perf_elements).
		return nil
	}
	if n.Code() != "" {
		f.w.put("// code associated with ", n.Name())
		f.w.lines(n.Code())
	}
	ident, ok := f.names[n.ID()]
	if !ok {
		return fmt.Errorf("cppgen: element %q was not declared", n.Name())
	}
	args, err := f.executeArgs(n)
	if err != nil {
		return err
	}
	f.w.put(ident, ".execute(", args, ");")
	return nil
}

// executeArgs builds the execute() argument list for an action-like
// element. All variants start with the context triple (uid, pid, tid); the
// remaining arguments depend on the stereotype: the cost of a code block,
// or the argument tags of a message-passing element.
func (f *flowEmitter) executeArgs(n *uml.ActionNode) (string, error) {
	switch n.Stereotype() {
	case profile.ActionPlus, profile.OMPCritical:
		// The cost function wins; the `time` tagged value is the
		// fallback (Figure 1b's measured execution time).
		src := n.CostFunc()
		if src == "" {
			if raw, ok := n.Tag(profile.TagTime); ok {
				src = raw
			}
		}
		cost := "0"
		if src != "" {
			c, err := f.render(src)
			if err != nil {
				return "", fmt.Errorf("cppgen: element %q cost function: %w", n.Name(), err)
			}
			cost = c
		}
		return "uid, pid, tid, " + cost, nil
	}
	tags, ok := profile.MessageTags(n.Stereotype())
	if !ok {
		return "", fmt.Errorf("cppgen: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())
	}
	args := "uid, pid, tid"
	for _, tag := range tags {
		raw, ok := n.Tag(tag)
		if !ok {
			return "", fmt.Errorf("cppgen: element %q: required tag %q unset", n.Name(), tag)
		}
		cpp, err := f.render(raw)
		if err != nil {
			return "", fmt.Errorf("cppgen: element %q tag %q: %w", n.Name(), tag, err)
		}
		args += ", /*" + tag + "*/ " + cpp
	}
	return args, nil
}

// emitActivity nests the activity's content in place (paper: "the C++ code
// that represents activity SA is nested within the C++ code of the main
// activity"). If the activity carries its own cost function, an execute()
// call models that aggregate cost before the content.
func (f *flowEmitter) emitActivity(n *uml.ActivityNode) error {
	f.w.line("// activity %s", n.Name())
	if n.Code() != "" {
		f.w.line("// code associated with %s", n.Name())
		f.w.lines(n.Code())
	}
	if n.CostFunc() != "" {
		ident, ok := f.names[n.ID()]
		if !ok {
			return fmt.Errorf("cppgen: activity %q was not declared", n.Name())
		}
		cost, err := f.render(n.CostFunc())
		if err != nil {
			return fmt.Errorf("cppgen: activity %q cost function: %w", n.Name(), err)
		}
		f.w.line("%s.execute(uid, pid, tid, %s);", ident, cost)
	}
	if n.Stereotype() == profile.OMPParallel {
		return f.emitParallelRegion(n)
	}
	return f.emitBody("activity", n.Name(), n.Body())
}

// emitBody nests the body diagram of an activity, parallel region or loop.
func (f *flowEmitter) emitBody(what, owner, name string) error {
	body := f.model.DiagramByName(name)
	if body == nil {
		return fmt.Errorf("cppgen: %s %q references unknown diagram %q", what, owner, name)
	}
	return f.emitDiagram(body)
}

// emitParallelRegion emits an OpenMP-style fork/join region: the body runs
// once per team thread, with the thread id rebound.
func (f *flowEmitter) emitParallelRegion(n *uml.ActivityNode) error {
	count := "threads"
	if raw, ok := n.Tag(profile.TagCount); ok {
		c, err := f.render(raw)
		if err != nil {
			return fmt.Errorf("cppgen: parallel region %q count: %w", n.Name(), err)
		}
		count = c
	}
	f.w.line("PARALLEL_FOR_THREADS(tid, (int)(%s)) {", count)
	f.w.in()
	if err := f.emitBody("parallel region", n.Name(), n.Body()); err != nil {
		return err
	}
	f.w.out()
	f.w.line("} // join %s", n.Name())
	return nil
}

// emitLoop emits a counted for statement around the loop body diagram.
func (f *flowEmitter) emitLoop(n *uml.LoopNode) error {
	count, err := f.render(n.Count())
	if err != nil {
		return fmt.Errorf("cppgen: loop %q count: %w", n.Name(), err)
	}
	v := n.Var()
	if v == "" {
		f.loopSeq++
		v = fmt.Sprintf("it%d", f.loopSeq)
	}
	f.w.line("for (int %s = 0; %s < (int)(%s); ++%s) { // loop %s", v, v, count, v, n.Name())
	f.w.in()
	if err := f.emitBody("loop", n.Name(), n.Body()); err != nil {
		return err
	}
	f.w.out()
	f.w.line("}")
	return nil
}
