package gogen

import (
	"fmt"
	"strings"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// goFlow folds a diagram's region tree into Go control flow, as the C++
// generator does into C++.
type goFlow struct {
	model   *uml.Model
	names   map[string]string
	w       *goWriter
	indent  int
	loopSeq int
	wgSeq   int
	active  []string
	// exprs holds every expression source rendered by this fold, so a
	// source that many elements share is parsed once. It lives for one
	// Generate call.
	exprs map[string]rendered
}

// rendered is one expression source's Go text or render error.
type rendered struct {
	text string
	err  error
}

// render is renderGo through the fold's memo; callers wrap the error
// with their own context.
func (f *goFlow) render(src string) (string, error) {
	r, ok := f.exprs[src]
	if !ok {
		r.text, r.err = renderGo(src)
		f.exprs[src] = r
	}
	return r.text, r.err
}

func (f *goFlow) line(format string, args ...interface{}) {
	f.tabs()
	f.w.line(format, args...)
}

// put is line for a line of plain parts.
func (f *goFlow) put(parts ...string) {
	f.tabs()
	f.w.put(parts...)
}

func (f *goFlow) tabs() {
	for i := 0; i < f.indent; i++ {
		f.w.sb.WriteByte('\t')
	}
}

func (f *goFlow) emitDiagram(d *uml.Diagram) error {
	for _, name := range f.active {
		if name == d.Name() {
			return fmt.Errorf("gogen: cyclic activity nesting through diagram %q", d.Name())
		}
	}
	f.active = append(f.active, d.Name())
	defer func() { f.active = f.active[:len(f.active)-1] }()
	r := d.Regions()
	return f.emit(&r)
}

// emit renders one region: decisions as if/else-if chains or a switch over
// one prophetRand() draw, forks as one goroutine per branch and a
// WaitGroup.
func (f *goFlow) emit(r *uml.Region) error {
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
				f.line("} else {")
			} else {
				guard, err := f.render(a.Edge.Guard())
				if err != nil {
					return fmt.Errorf("gogen: guard %q: %w", a.Edge.Guard(), err)
				}
				if i == 0 {
					f.put("if ", guard, " {")
				} else {
					f.put("} else if ", guard, " {")
				}
			}
			if err := f.emitArm(a); err != nil {
				return err
			}
		}
		f.line("}")
	case uml.RegionWeighted:
		var total float64
		for _, a := range r.Arms {
			total += a.Edge.Weight()
		}
		f.line("switch pmpR := prophetRand() * %g; { // weighted branch", total)
		acc := 0.0
		for i := range r.Arms {
			acc += r.Arms[i].Edge.Weight()
			if i == len(r.Arms)-1 {
				f.line("default:")
			} else {
				f.line("case pmpR < %g:", acc)
			}
			if err := f.emitArm(&r.Arms[i]); err != nil {
				return err
			}
		}
		f.line("}")
	case uml.RegionFork:
		f.wgSeq++
		wg := fmt.Sprintf("wg%d", f.wgSeq)
		f.line("var %s sync.WaitGroup // fork", wg)
		for i := range r.Arms {
			f.line("%s.Add(1)", wg)
			f.line("go func() {")
			f.indent++
			f.line("defer %s.Done()", wg)
			if err := f.emit(&r.Arms[i].Body); err != nil {
				return err
			}
			f.indent--
			f.line("}()")
		}
		f.line("%s.Wait() // join", wg)
	case uml.RegionErr:
		return fmt.Errorf("gogen: %w", r.Err)
	}
	return nil
}

// emitArm emits one decision branch one level deeper.
func (f *goFlow) emitArm(a *uml.Arm) error {
	f.indent++
	err := f.emit(&a.Body)
	f.indent--
	return err
}

// shims names the runtime shim each message-passing stereotype calls.
var shims = map[string]string{
	profile.MPISend:      "mpiSend",
	profile.MPIRecv:      "mpiRecv",
	profile.MPISendrecv:  "mpiSendrecv",
	profile.MPIBarrier:   "mpiBarrier",
	profile.MPIBroadcast: "mpiBcast",
	profile.MPIReduce:    "mpiReduce",
}

// emitAction calls a code block's function, or the shim of a
// message-passing element with its argument tags (0 where unset).
func (f *goFlow) emitAction(n *uml.ActionNode) error {
	switch n.Stereotype() {
	case "":
		return nil
	case profile.ActionPlus, profile.OMPCritical:
		ident, ok := f.names[n.ID()]
		if !ok {
			return fmt.Errorf("gogen: element %q was not declared", n.Name())
		}
		f.put(ident, "()")
		return nil
	}
	tags, ok := profile.MessageTags(n.Stereotype())
	if !ok {
		return fmt.Errorf("gogen: element %q: unsupported stereotype <<%s>>", n.Name(), n.Stereotype())
	}
	args := make([]string, len(tags))
	for i, tag := range tags {
		args[i] = "0"
		if raw, ok := n.Tag(tag); ok {
			a, err := f.render(raw)
			if err != nil {
				return fmt.Errorf("gogen: %q %s: %w", n.Name(), tag, err)
			}
			args[i] = a
		}
	}
	f.put(shims[n.Stereotype()], "(", strings.Join(args, ", "), ")")
	return nil
}

func (f *goFlow) emitActivity(n *uml.ActivityNode) error {
	f.put("// activity ", n.Name())
	body := f.model.DiagramByName(n.Body())
	if body == nil {
		return fmt.Errorf("gogen: activity %q references unknown diagram %q", n.Name(), n.Body())
	}
	if n.Stereotype() == profile.OMPParallel {
		count := "int(1)"
		if raw, ok := n.Tag(profile.TagCount); ok {
			c, err := f.render(raw)
			if err != nil {
				return fmt.Errorf("gogen: parallel region %q count: %w", n.Name(), err)
			}
			count = "int(" + c + ")"
		}
		f.wgSeq++
		wg := fmt.Sprintf("wg%d", f.wgSeq)
		f.line("var %s sync.WaitGroup", wg)
		f.line("for t := 0; t < %s; t++ {", count)
		f.indent++
		f.line("%s.Add(1)", wg)
		f.line("go func(tid int) {")
		f.indent++
		f.line("defer %s.Done()", wg)
		f.line("_ = tid")
		if err := f.emitDiagram(body); err != nil {
			return err
		}
		f.indent--
		f.line("}(t)")
		f.indent--
		f.line("}")
		f.line("%s.Wait()", wg)
		return nil
	}
	return f.emitDiagram(body)
}

func (f *goFlow) emitLoop(n *uml.LoopNode) error {
	count, err := f.render(n.Count())
	if err != nil {
		return fmt.Errorf("gogen: loop %q count: %w", n.Name(), err)
	}
	v := n.Var()
	if v == "" {
		f.loopSeq++
		v = fmt.Sprintf("it%d", f.loopSeq)
	}
	body := f.model.DiagramByName(n.Body())
	if body == nil {
		return fmt.Errorf("gogen: loop %q references unknown diagram %q", n.Name(), n.Body())
	}
	f.line("for %s := 0; %s < int(%s); %s++ { // loop %s", v, v, count, v, n.Name())
	f.indent++
	f.line("_ = %s", v)
	if err := f.emitDiagram(body); err != nil {
		return err
	}
	f.indent--
	f.line("}")
	return nil
}
