// Package cppgen implements the paper's core contribution: the automatic
// transformation of a UML-based performance model into its C++
// representation (paper, Section 3 and the Figure 5 algorithm).
//
// The generator follows the algorithm's phases literally:
//
//	lines  1-8:  identify performance modeling elements by stereotype name
//	lines  9-12: emit global variables
//	lines 13-18: emit cost functions
//	lines 20-23: emit local variables
//	lines 24-28: declare performance modeling elements
//	lines 29-35: emit the execution flow of the modeling elements
//
// The emitted C++ is the Performance Model of Program (PMP) of the
// Figure 2 architecture: each performance modeling element becomes an
// instance of a runtime class (ActionPlus, MpiSend, ...) and is executed by
// invoking its execute() method with the element's cost function as an
// argument — `a1.execute(uid, pid, tid, FA1());` — exactly as in the
// paper's Figure 8. Branches map to if/else-if statements and the content
// of an <<activity+>> is nested inside the flow of its parent diagram.
//
// Phase 1 runs on the Traverser/Navigator/ContentHandler machinery of
// package traverse, as prescribed by the paper's Figure 6.
package cppgen

import (
	"fmt"
	"strconv"
	"strings"

	"prophet/internal/profile"
	"prophet/internal/traverse"
	"prophet/internal/uml"
)

// Options adjust the generated text.
type Options struct {
	// Header is the runtime include file. Default "pmp_runtime.h".
	Header string
	// FunctionName is the name of the generated program function.
	// Default "model_program".
	FunctionName string
	// Banner controls the leading comment block. Default on; benchmarks
	// that compare generator throughput disable it.
	Banner bool
}

func (o Options) withDefaults() Options {
	if o.Header == "" {
		o.Header = "pmp_runtime.h"
	}
	if o.FunctionName == "" {
		o.FunctionName = "model_program"
	}
	return o
}

// DefaultOptions returns the options used by New.
func DefaultOptions() Options {
	return Options{Banner: true}.withDefaults()
}

// Generator transforms models to C++.
type Generator struct {
	registry *profile.Registry
	opts     Options
}

// New returns a generator with the standard profile and default options.
func New() *Generator {
	return NewWith(profile.NewRegistry(), DefaultOptions())
}

// NewWith returns a generator with an explicit registry and options.
func NewWith(reg *profile.Registry, opts Options) *Generator {
	return &Generator{registry: reg, opts: opts.withDefaults()}
}

// Generate produces the C++ representation of the model.
func (g *Generator) Generate(m *uml.Model) (string, error) {
	// Phase 1 (Figure 5, lines 1-8): identify and select performance
	// modeling elements, via the Figure 6 traversal machinery.
	perf, err := g.selectPerfElements(m)
	if err != nil {
		return "", err
	}

	w := &writer{}
	// Every element contributes a declaration plus a flow statement plus
	// surrounding structure; ~96 bytes/node keeps the builder from doubling
	// its way up on large models.
	sizeEstimate := 256
	for _, d := range m.Diagrams() {
		sizeEstimate += 96 * len(d.Nodes())
	}
	w.sb.Grow(sizeEstimate)
	if g.opts.Banner {
		w.line("// Performance Model of Program (PMP)")
		w.line("// model: %s", m.Name())
		w.line("// generated by prophet: automatic UML -> C++ performance model transformation")
		w.blank()
	}
	w.line("#include %q", g.opts.Header)
	w.blank()

	// Phase 2 (lines 9-12): globals.
	if err := g.emitGlobals(w, m); err != nil {
		return "", err
	}
	// Phase 3 (lines 13-18): cost functions.
	if err := g.emitCostFunctions(w, m); err != nil {
		return "", err
	}

	// Phase 4..6 (lines 19-35): the program.
	w.line("// -- Program --")
	w.line("void %s(int uid, int pid, int tid) {", g.opts.FunctionName)
	w.in()
	if err := g.emitLocals(w, m); err != nil {
		return "", err
	}
	names, err := g.emitDeclarations(w, m, perf)
	if err != nil {
		return "", err
	}
	if err := g.emitFlow(w, m, names); err != nil {
		return "", err
	}
	w.out()
	w.line("}")
	return w.String(), nil
}

// selectPerfElements is phase 1: it traverses the model and collects every
// element whose stereotype marks it performance-relevant.
func (g *Generator) selectPerfElements(m *uml.Model) ([]uml.Element, error) {
	sel := &traverse.SelectHandler{Matches: g.registry.IsPerformanceElement}
	if err := traverse.Run(m, sel); err != nil {
		return nil, fmt.Errorf("cppgen: select: %w", err)
	}
	return sel.Selected, nil
}

// emitGlobals is phase 2: one declaration per global model variable
// (paper, Figure 8a lines 24-25: `double GV; double P;`).
func (g *Generator) emitGlobals(w *writer, m *uml.Model) error {
	globals := m.VariablesIn(uml.ScopeGlobal)
	w.line("// -- Global variables --")
	for _, v := range globals {
		if err := emitVariable(w, v); err != nil {
			return err
		}
	}
	w.blank()
	return nil
}

// emitCostFunctions is phase 3: one C++ function per cost-function
// definition (paper, Figure 8a lines 31-54).
func (g *Generator) emitCostFunctions(w *writer, m *uml.Model) error {
	w.line("// -- Cost functions --")
	for _, f := range m.Functions() {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			typ := p.Type
			if typ == "" {
				typ = "double"
			}
			params[i] = typ + " " + p.Name
		}
		body, err := RenderExpr(f.Body)
		if err != nil {
			return fmt.Errorf("cppgen: cost function %s: %w", f.Name, err)
		}
		w.line("%s %s(%s) {", f.ReturnType(), f.Name, strings.Join(params, ", "))
		w.in()
		w.line("return %s;", body)
		w.out()
		w.line("}")
		w.blank()
	}
	return nil
}

// emitLocals is phase 4: local variables inside the program body (paper,
// Figure 5 lines 20-23).
func (g *Generator) emitLocals(w *writer, m *uml.Model) error {
	locals := m.VariablesIn(uml.ScopeLocal)
	w.line("// -- Local variables --")
	for _, v := range locals {
		if err := emitVariable(w, v); err != nil {
			return err
		}
	}
	w.blank()
	return nil
}

func emitVariable(w *writer, v uml.Variable) error {
	if v.Init == "" {
		w.line("%s %s;", v.Type, v.Name)
		return nil
	}
	init, err := RenderExpr(v.Init)
	if err != nil {
		return fmt.Errorf("cppgen: variable %s initializer: %w", v.Name, err)
	}
	w.line("%s %s = %s;", v.Type, v.Name, init)
	return nil
}

// emitDeclarations is phase 5 (Figure 5 lines 24-28): declare the
// performance modeling elements — `ActionPlus a1("A1", 1);`. The paper's
// Figure 8b declares the action-like elements {A1, A2, A4, SA1, SA2};
// structural elements (activities without their own cost function, loops)
// produce no declaration because their C++ form is control flow, not an
// object. The returned map assigns each declared element its C++ instance
// identifier.
func (g *Generator) emitDeclarations(w *writer, m *uml.Model, perf []uml.Element) (map[string]string, error) {
	names := make(map[string]string)
	used := make(map[string]bool)
	w.line("// -- Performance modeling elements --")
	for _, e := range perf {
		class, declare, err := g.elementClass(e)
		if err != nil {
			return nil, err
		}
		if !declare {
			continue
		}
		ident := Identifier(e.Name())
		for used[ident] {
			ident += "_"
		}
		used[ident] = true
		names[e.ID()] = ident
		id, _ := uml.TagInt(e, profile.TagID)
		w.put(class, " ", ident, "(", strconv.Quote(e.Name()), ", ", strconv.Itoa(id), ");")
	}
	w.blank()
	return names, nil
}

// elementClass maps a stereotype to its runtime class (paper, Figure 4:
// "For the modeling element action+ we have defined the corresponding
// class ActionPlus"). The second result reports whether the element is
// declared as an object at all.
func (g *Generator) elementClass(e uml.Element) (string, bool, error) {
	switch e.Stereotype() {
	case profile.ActionPlus:
		return "ActionPlus", true, nil
	case profile.ActivityPlus:
		// An activity is structural; it is declared only when it carries
		// an aggregate cost function of its own.
		if a, ok := e.(*uml.ActivityNode); ok && a.CostFunc() != "" {
			return "ActivityPlus", true, nil
		}
		return "ActivityPlus", false, nil
	case profile.LoopPlus:
		return "", false, nil
	case profile.MPISend:
		return "MpiSend", true, nil
	case profile.MPIRecv:
		return "MpiRecv", true, nil
	case profile.MPISendrecv:
		return "MpiSendrecv", true, nil
	case profile.MPIBarrier:
		return "MpiBarrier", true, nil
	case profile.MPIBroadcast:
		return "MpiBcast", true, nil
	case profile.MPIReduce:
		return "MpiReduce", true, nil
	case profile.OMPParallel:
		return "", false, nil
	case profile.OMPCritical:
		return "OmpCritical", true, nil
	}
	return "", false, fmt.Errorf("cppgen: element %q: no C++ mapping for stereotype <<%s>>",
		e.Name(), e.Stereotype())
}

// writer accumulates indented source text.
type writer struct {
	sb     strings.Builder
	indent int
}

func (w *writer) in()  { w.indent++ }
func (w *writer) out() { w.indent-- }

func (w *writer) line(format string, args ...interface{}) {
	for i := 0; i < w.indent; i++ {
		w.sb.WriteString("    ")
	}
	// No line call passes a literal % verb without arguments, so argless
	// formats can bypass fmt entirely (line is the hottest write path).
	if len(args) == 0 {
		w.sb.WriteString(format)
	} else {
		fmt.Fprintf(&w.sb, format, args...)
	}
	w.sb.WriteByte('\n')
}

// put writes one indented line from its parts, without formatting: the
// per-element lines go through here.
func (w *writer) put(parts ...string) {
	for i := 0; i < w.indent; i++ {
		w.sb.WriteString("    ")
	}
	for _, p := range parts {
		w.sb.WriteString(p)
	}
	w.sb.WriteByte('\n')
}

// lines writes a multi-line fragment, indenting every line.
func (w *writer) lines(fragment string) {
	for _, ln := range strings.Split(fragment, "\n") {
		if strings.TrimSpace(ln) == "" {
			w.sb.WriteByte('\n')
			continue
		}
		for i := 0; i < w.indent; i++ {
			w.sb.WriteString("    ")
		}
		w.sb.WriteString(ln)
		w.sb.WriteByte('\n')
	}
}

func (w *writer) blank() { w.sb.WriteByte('\n') }

func (w *writer) String() string { return w.sb.String() }
