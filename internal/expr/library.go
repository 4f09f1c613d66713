package expr

import (
	"fmt"
)

// maxCallDepth bounds user-function call nesting so that accidentally
// (mutually) recursive cost-function definitions fail with a clear error
// instead of overflowing the stack.
const maxCallDepth = 64

// Def is a user cost-function definition: a named, parameterized expression
// body. It is the expression-level view of a uml.Function.
type Def struct {
	Name   string
	Params []string
	Body   string
}

// Library holds the compiled user cost functions of one model. Functions in
// a library may call each other ("a cost function may be composed using
// other functions that are defined in the performance model", paper
// Section 4) and may read variables from the evaluation environment.
type Library struct {
	defs  map[string]*libFunc
	order []string
}

type libFunc struct {
	def  Def
	body *Slotted // formal parameter i reads Locals[i]
}

// NewLibrary compiles a set of definitions. Bodies are parsed eagerly so
// that malformed cost functions are reported at model-load time, not in the
// middle of a simulation.
func NewLibrary(defs []Def) (*Library, error) {
	lib := &Library{defs: make(map[string]*libFunc, len(defs))}
	for _, d := range defs {
		if d.Name == "" {
			return nil, fmt.Errorf("expr: function definition with empty name")
		}
		if _, dup := lib.defs[d.Name]; dup {
			return nil, fmt.Errorf("expr: duplicate function %q", d.Name)
		}
		if IsBuiltin(d.Name) {
			return nil, fmt.Errorf("expr: function %q shadows a builtin", d.Name)
		}
		body, err := CompileString(d.Body)
		if err != nil {
			return nil, fmt.Errorf("expr: function %q: %w", d.Name, err)
		}
		lib.defs[d.Name] = &libFunc{def: d, body: body.Resolve(paramSlots(d.Params))}
		lib.order = append(lib.order, d.Name)
	}
	return lib, nil
}

// paramSlots places each formal parameter in the local slot of its
// position (the first of duplicate names wins); every other name stays
// dynamic.
func paramSlots(params []string) func(string) SlotRule {
	return func(name string) SlotRule {
		for i, p := range params {
			if p == name {
				return SlotRule{Kind: SlotLocal, Local: i}
			}
		}
		return SlotRule{Kind: SlotDynamic}
	}
}

// Names returns the defined function names in definition order.
func (l *Library) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Def returns the definition of a function and whether it exists.
func (l *Library) Def(name string) (Def, bool) {
	f, ok := l.defs[name]
	if !ok {
		return Def{}, false
	}
	return f.def, true
}

// Bind returns an Env that resolves the library's functions on top of the
// builtins, with free variables (and functions not defined here) resolved
// through outer. Each user-function call evaluates its body in an
// environment where the formal parameters shadow outer bindings.
func (l *Library) Bind(outer Env) Env {
	return &boundLibrary{lib: l, outer: outer}
}

type boundLibrary struct {
	lib   *Library
	outer Env
	depth int
}

func (b *boundLibrary) Var(name string) (float64, bool) {
	if b.outer == nil {
		return 0, false
	}
	return b.outer.Var(name)
}

func (b *boundLibrary) Func(name string) (Func, bool) {
	if f, ok := b.lib.defs[name]; ok {
		return func(args []float64) (float64, error) { return b.invoke(f, args) }, true
	}
	if f, ok := Builtins.Func(name); ok {
		return f, true
	}
	if b.outer != nil {
		return b.outer.Func(name)
	}
	return nil, false
}

// invoke evaluates user function f's body with its parameters bound to
// args.
func (b *boundLibrary) invoke(f *libFunc, args []float64) (float64, error) {
	if len(args) != len(f.def.Params) {
		return 0, fmt.Errorf("expr: %s expects %d argument(s), got %d",
			f.def.Name, len(f.def.Params), len(args))
	}
	if b.depth >= maxCallDepth {
		return 0, fmt.Errorf("expr: call depth exceeds %d (recursive cost function %q?)",
			maxCallDepth, f.def.Name)
	}
	// The frame is one allocation: the arguments become its locals,
	// and names without a slot resolve through the library one
	// level deeper.
	fr := &callFrame{lib: boundLibrary{lib: b.lib, outer: b.outer, depth: b.depth + 1}}
	fr.se = SlotEnv{Locals: args, Fallback: &fr.lib}
	return f.body.Eval(&fr.se)
}

// callFrame is the evaluation frame of one user-function call.
type callFrame struct {
	se  SlotEnv
	lib boundLibrary
}
