// Package gogen generates runnable program code from a performance model.
//
// The paper closes with: "In future we plan to extend our approach to
// enable the automatic generation of the program code based on the UML
// model." This package implements that extension for Go: from the same
// model tree that cppgen turns into a simulation (the performance view),
// gogen emits an application skeleton — one function per modeled code
// block, the model's control flow reproduced as real control flow,
// fork/join regions as goroutines with a WaitGroup, and message-passing
// elements as calls to a small generated runtime shim.
//
// The output is syntactically valid Go (asserted with go/parser in the
// tests); the developer fills in the TODO bodies with the real
// computation.
package gogen

import (
	"fmt"
	"strconv"
	"strings"

	"prophet/internal/expr"
	"prophet/internal/profile"
	"prophet/internal/traverse"
	"prophet/internal/uml"
)

// Options adjust the generated program.
type Options struct {
	// Package name; default "main".
	Package string
	// EmitMain controls whether func main is generated (default true via
	// DefaultOptions).
	EmitMain bool
}

// DefaultOptions generates a standalone package main.
func DefaultOptions() Options { return Options{Package: "main", EmitMain: true} }

// Generator emits Go program skeletons.
type Generator struct {
	registry *profile.Registry
	opts     Options
}

// New returns a generator with the standard profile.
func New() *Generator { return NewWith(profile.NewRegistry(), DefaultOptions()) }

// NewWith returns a generator with explicit registry and options.
func NewWith(reg *profile.Registry, opts Options) *Generator {
	if opts.Package == "" {
		opts.Package = "main"
	}
	return &Generator{registry: reg, opts: opts}
}

// Generate produces the Go source for a model.
func (g *Generator) Generate(m *uml.Model) (string, error) {
	sel := &traverse.SelectHandler{Matches: g.registry.IsPerformanceElement}
	if err := traverse.Run(m, sel); err != nil {
		return "", fmt.Errorf("gogen: %w", err)
	}

	gw := &goWriter{}
	// Generated models come out at 125-132 bytes per node (modelgen,
	// 10^3..5*10^4 nodes) on top of ~2 KiB of header and runtime shims;
	// sizing for 144 bytes per node keeps the builder from doubling its
	// way up on large models.
	size := 2048
	for _, d := range m.Diagrams() {
		size += 144 * len(d.Nodes())
	}
	gw.sb.Grow(size)
	gw.line("// Code generated by prophet from performance model %q; DO NOT EDIT the flow,", m.Name())
	gw.line("// fill in the TODO bodies with the application's real computation.")
	gw.line("package %s", g.opts.Package)
	gw.blank()
	gw.line("import (")
	gw.line("\t\"math\"")
	gw.line("\t\"sync\"")
	gw.line(")")
	gw.blank()
	gw.line("var _ = math.Mod // keep the import alive for models without remainder")
	gw.line("var _ sync.WaitGroup")
	gw.blank()

	g.emitSystemParams(gw, m)
	if err := g.emitGlobals(gw, m); err != nil {
		return "", err
	}
	if err := g.emitCostFunctions(gw, m); err != nil {
		return "", err
	}
	g.emitRuntimeShims(gw)
	names := blockNames(sel.Selected)
	emitBlockFuncs(gw, sel.Selected, names)
	if g.opts.EmitMain {
		if err := emitMain(gw, m, names); err != nil {
			return "", err
		}
	}
	return gw.String(), nil
}

// emitSystemParams declares the well-known names that model expressions
// may reference freely (the System Parameters of the estimator plus the
// execute() context triple), skipping any the model declares itself.
func (g *Generator) emitSystemParams(gw *goWriter, m *uml.Model) {
	names := []string{"nodes", "processors", "processes", "threads", "uid", "pid", "tid"}
	var missing []string
	for _, name := range names {
		if _, declared := m.Variable(name); !declared {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	gw.line("// System parameters and execution context; set before running.")
	gw.line("var (")
	for _, name := range missing {
		init := "1"
		switch name {
		case "uid", "pid", "tid":
			init = "0"
		}
		gw.line("\t%s float64 = %s", name, init)
	}
	gw.line(")")
	gw.blank()
}

func (g *Generator) emitGlobals(gw *goWriter, m *uml.Model) error {
	globals := m.VariablesIn(uml.ScopeGlobal)
	if len(globals) == 0 {
		return nil
	}
	gw.line("// Global variables of the model.")
	gw.line("var (")
	for _, v := range globals {
		if v.Init != "" {
			init, err := renderGo(v.Init)
			if err != nil {
				return fmt.Errorf("gogen: variable %s: %w", v.Name, err)
			}
			gw.line("\t%s float64 = %s", v.Name, init)
		} else {
			gw.line("\t%s float64", v.Name)
		}
	}
	gw.line(")")
	gw.blank()
	return nil
}

func (g *Generator) emitCostFunctions(gw *goWriter, m *uml.Model) error {
	if len(m.Functions()) == 0 {
		return nil
	}
	gw.line("// Cost functions: the model's performance annotations, kept for")
	gw.line("// instrumentation and regression checks against the deployed code.")
	for _, f := range m.Functions() {
		params := make([]string, len(f.Params))
		for i, p := range f.Params {
			params[i] = p.Name + " float64"
		}
		body, err := renderGo(f.Body)
		if err != nil {
			return fmt.Errorf("gogen: function %s: %w", f.Name, err)
		}
		gw.line("func %s(%s) float64 { return %s }", f.Name, strings.Join(params, ", "), body)
	}
	gw.blank()
	return nil
}

// emitRuntimeShims writes the message-passing stubs the generated flow
// calls; a real port replaces these with the application's communication
// layer.
func (g *Generator) emitRuntimeShims(gw *goWriter) {
	gw.line("// Communication shims; replace with the real communication layer.")
	gw.line("func mpiSend(dest, size float64) { _ = dest; _ = size }")
	gw.line("func mpiRecv(src float64)        { _ = src }")
	gw.line("func mpiSendrecv(dest, src, size float64) { _, _, _ = dest, src, size }")
	gw.blank()
	gw.line("// prophetRand drives probabilistic (weighted) branches.")
	gw.line("var prophetRandState uint64 = 0x9E3779B97F4A7C15")
	gw.blank()
	gw.line("func prophetRand() float64 {")
	gw.line("\tprophetRandState = prophetRandState*6364136223846793005 + 1442695040888963407")
	gw.line("\treturn float64(prophetRandState>>11) / float64(uint64(1)<<53)")
	gw.line("}")
	gw.blank()
	gw.line("var _ = prophetRand")
	gw.line("func mpiBarrier()                {}")
	gw.line("func mpiBcast(root, size float64) { _ = root; _ = size }")
	gw.line("func mpiReduce(root, size float64) { _ = root; _ = size }")
	gw.blank()
}

// blockNames gives every action-like performance element its own Go
// function name: funcName maps distinct element names such as "a-b" and
// "a_b" to one identifier, so a repeat gets underscores appended until it
// is unused.
func blockNames(perf []uml.Element) map[string]string {
	names := make(map[string]string, len(perf))
	used := make(map[string]bool, len(perf))
	for _, e := range perf {
		switch e.Stereotype() {
		case profile.ActionPlus, profile.OMPCritical:
		default:
			continue // MPI elements call shims inline
		}
		if _, ok := e.(*uml.ActionNode); !ok {
			continue
		}
		ident := funcName(e.Name())
		for used[ident] {
			ident += "_"
		}
		used[ident] = true
		names[e.ID()] = ident
	}
	return names
}

// emitBlockFuncs writes one function per action-like performance element.
func emitBlockFuncs(gw *goWriter, perf []uml.Element, names map[string]string) {
	for _, e := range perf {
		ident, ok := names[e.ID()]
		if !ok {
			continue
		}
		a := e.(*uml.ActionNode)
		gw.put("// ", ident, " implements the code block modeled by element ", a.Name(), ".")
		if a.CostFunc() != "" {
			gw.put("// Modeled execution time: ", a.CostFunc(), ".")
		}
		gw.put("func ", ident, "() {")
		if a.Code() != "" {
			for _, ln := range strings.Split(a.Code(), "\n") {
				gw.put("\t// ", ln)
			}
		}
		gw.put("\t// TODO: port the computation of block ", a.Name(), " here.")
		gw.put("}")
		gw.blank()
	}
}

func emitMain(gw *goWriter, m *uml.Model, names map[string]string) error {
	gw.line("func main() {")
	gw.line("\tuid, pid, tid = 0, 0, 0")
	gw.line("\t_, _, _ = uid, pid, tid")
	if main := m.Main(); main != nil {
		f := &goFlow{model: m, names: names, w: gw, indent: 1, exprs: map[string]rendered{}}
		if err := f.emitDiagram(main); err != nil {
			return err
		}
	}
	gw.line("}")
	return nil
}

// funcName maps an element name to a Go function identifier (exported
// style, sanitized).
func funcName(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			sb.WriteByte('_')
			continue
		}
		if i == 0 && r >= 'a' && r <= 'z' {
			sb.WriteRune(r - 'a' + 'A')
			continue
		}
		sb.WriteRune(r)
	}
	if sb.Len() == 0 {
		return "Block"
	}
	return "Block" + sb.String()
}

// renderGo translates a model expression to Go source. Go's '%' is
// integral-only, so remainder lowers to math.Mod; the ternary operator has
// no Go equivalent and is rejected with a clear error.
func renderGo(src string) (string, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return "", err
	}
	return renderGoNode(n)
}

func renderGoNode(n expr.Node) (string, error) {
	switch x := n.(type) {
	case *expr.Num:
		s := strconv.FormatFloat(x.Value, 'g', -1, 64)
		return s, nil
	case *expr.Var:
		return x.Name, nil
	case *expr.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			s, err := renderGoNode(a)
			if err != nil {
				return "", err
			}
			args[i] = s
		}
		name := x.Name
		switch name {
		case "pow", "sqrt", "log", "log2", "log10", "exp", "abs", "floor", "ceil",
			"round", "min", "max", "sin", "cos", "tan", "cbrt":
			// Go's math package has each of these under the same name,
			// capitalized.
			name = "math." + strings.ToUpper(name[:1]) + name[1:]
		}
		return name + "(" + strings.Join(args, ", ") + ")", nil
	case *expr.Unary:
		inner, err := renderGoOperand(x.X)
		if err != nil {
			return "", err
		}
		return x.Op + inner, nil
	case *expr.Binary:
		if x.Op == "%" {
			l, err := renderGoNode(x.L)
			if err != nil {
				return "", err
			}
			r, err := renderGoNode(x.R)
			if err != nil {
				return "", err
			}
			return "math.Mod(" + l + ", " + r + ")", nil
		}
		l, err := renderGoOperand(x.L)
		if err != nil {
			return "", err
		}
		r, err := renderGoOperand(x.R)
		if err != nil {
			return "", err
		}
		return l + " " + x.Op + " " + r, nil
	case *expr.Cond:
		return "", fmt.Errorf("gogen: the conditional operator has no Go equivalent (expression %q)", n.String())
	default:
		return "", fmt.Errorf("gogen: unknown expression node %T", n)
	}
}

func renderGoOperand(n expr.Node) (string, error) {
	s, err := renderGoNode(n)
	if err != nil {
		return "", err
	}
	switch n.(type) {
	case *expr.Num, *expr.Var, *expr.Call:
		return s, nil
	}
	return "(" + s + ")", nil
}

// goWriter accumulates tab-indented Go source.
type goWriter struct {
	sb strings.Builder
}

func (w *goWriter) line(format string, args ...interface{}) {
	// No line call passes a literal % verb without arguments, so argless
	// formats bypass fmt.
	if len(args) == 0 {
		w.sb.WriteString(format)
	} else {
		fmt.Fprintf(&w.sb, format, args...)
	}
	w.sb.WriteByte('\n')
}

// put writes one line from its parts, without formatting: the
// per-element lines go through here.
func (w *goWriter) put(parts ...string) {
	for _, p := range parts {
		w.sb.WriteString(p)
	}
	w.sb.WriteByte('\n')
}

func (w *goWriter) blank() { w.sb.WriteByte('\n') }

func (w *goWriter) String() string { return w.sb.String() }
