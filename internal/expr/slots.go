package expr

// The closure builder. Every expression evaluates through the closures
// resolveSlots builds against a slot layout. The lowered backend
// (internal/lower) assigns every model variable a fixed slot index ahead
// of time, so the simulation inner loop reads variables by integer
// indexing into a reusable frame instead of chasing a chain of map
// lookups (locals -> globals -> system parameters) per reference. Names
// the layout leaves dynamic (and every function call) resolve through a
// regular Env. By-name evaluation (Compiled.Eval) is the same builder run
// with a layout that leaves every name dynamic, so slot resolution is a
// strict fast path, not a different semantics.

// SlotKind classifies how a variable name resolves against a SlotEnv.
type SlotKind int

const (
	// SlotDynamic leaves the name to SlotEnv.Fallback at eval time.
	SlotDynamic SlotKind = iota
	// SlotLocal reads Locals[Local]: a local slot that is always defined
	// (pid/tid/uid and declared scope-local variables).
	SlotLocal
	// SlotLocalDyn reads Locals[Local] only while Defined[Local] is set
	// (loop variables, code-fragment assignment targets); otherwise the
	// name falls through to the Global slot if it has one, then to
	// Fallback.
	SlotLocalDyn
	// SlotGlobal reads Globals[Global].
	SlotGlobal
)

// SlotRule tells Resolve where one variable name lives.
type SlotRule struct {
	Kind   SlotKind
	Local  int // index into Locals/Defined (SlotLocal, SlotLocalDyn)
	Global int // index into Globals (SlotGlobal; shadow slot for SlotLocalDyn, -1 = none)
}

// SlotEnv is the reusable slot-backed frame a Slotted expression
// evaluates against. Locals/Defined belong to one flow context; Globals
// is shared by every context of a run. Fallback resolves names without a
// slot rule (system parameters, config-injected globals) and all function
// calls; it may be nil, in which case unresolved names are undefined.
type SlotEnv struct {
	Locals   []float64
	Defined  []bool
	Globals  []float64
	Fallback Env

	stack []float64 // argument values of the calls being evaluated
}

// slotted is the closure form resolveSlots builds. se is the slot frame;
// env resolves every dynamic name and every function call. Slotted.Eval
// passes se.Fallback as env; by-name evaluation passes a nil frame, which
// its all-dynamic layout never reads, so it needs no frame allocated.
type slotted func(se *SlotEnv, env Env) (float64, error)

// byName is the layout of by-name evaluation: every name is dynamic.
func byName(string) SlotRule { return SlotRule{Kind: SlotDynamic} }

// Slotted is a compiled expression whose variable references have been
// pre-resolved to slot indices. Produced by Compiled.Resolve.
type Slotted struct {
	fn slotted
}

// Resolve re-lowers the compiled expression against a slot layout: rule
// maps each free variable name to its slot. The returned Slotted
// evaluates with zero map lookups for slot-mapped names.
func (c *Compiled) Resolve(rule func(name string) SlotRule) *Slotted {
	return &Slotted{fn: resolveSlots(c.node, rule)}
}

// Eval evaluates the slot-resolved expression against the frame.
func (s *Slotted) Eval(se *SlotEnv) (float64, error) { return s.fn(se, se.Fallback) }

func fallbackVar(env Env, name string) (float64, error) {
	if env != nil {
		if v, ok := env.Var(name); ok {
			return v, nil
		}
	}
	return 0, &UndefinedError{Kind: "variable", Name: name}
}

func resolveSlots(n Node, rule func(string) SlotRule) slotted {
	switch x := n.(type) {
	case *Num:
		v := x.Value
		return func(*SlotEnv, Env) (float64, error) { return v, nil }
	case *Var:
		name := x.Name
		r := rule(name)
		switch r.Kind {
		case SlotLocal:
			i := r.Local
			return func(se *SlotEnv, _ Env) (float64, error) { return se.Locals[i], nil }
		case SlotGlobal:
			i := r.Global
			return func(se *SlotEnv, _ Env) (float64, error) { return se.Globals[i], nil }
		case SlotLocalDyn:
			li, gi := r.Local, r.Global
			return func(se *SlotEnv, env Env) (float64, error) {
				if se.Defined[li] {
					return se.Locals[li], nil
				}
				if gi >= 0 {
					return se.Globals[gi], nil
				}
				return fallbackVar(env, name)
			}
		}
		// fallbackVar spelled out: every by-name read takes this path,
		// and the extra call measured ~5% on BenchmarkExpr/compiled.
		return func(_ *SlotEnv, env Env) (float64, error) {
			if env != nil {
				if v, ok := env.Var(name); ok {
					return v, nil
				}
			}
			return 0, &UndefinedError{Kind: "variable", Name: name}
		}
	case *Call:
		name := x.Name
		args := make([]slotted, len(x.Args))
		for i, a := range x.Args {
			args[i] = resolveSlots(a, rule)
		}
		return func(se *SlotEnv, env Env) (float64, error) {
			// A user function of a bound library is invoked directly,
			// without the closure its Func makes.
			var (
				f    Func
				ok   bool
				user *libFunc
			)
			b, _ := env.(*boundLibrary)
			if b != nil {
				user = b.lib.defs[name]
			}
			if user == nil && env != nil {
				f, ok = env.Func(name)
			}
			if user == nil && !ok {
				return 0, &UndefinedError{Kind: "function", Name: name}
			}
			// The argument values go on the frame's stack (by-name
			// evaluation, which has no frame, on one of its own), so a
			// call allocates nothing once the stack has grown.
			var own []float64
			stack := &own
			if se != nil {
				stack = &se.stack
			}
			base := len(*stack)
			defer func() { *stack = (*stack)[:base] }()
			for _, a := range args {
				v, err := a(se, env)
				if err != nil {
					return 0, err
				}
				*stack = append(*stack, v)
			}
			vals := (*stack)[base:len(*stack):len(*stack)]
			if user != nil {
				return b.invoke(user, vals)
			}
			return f(vals)
		}
	case *Unary:
		sub := resolveSlots(x.X, rule)
		op := x.Op
		return func(se *SlotEnv, env Env) (float64, error) {
			v, err := sub(se, env)
			if err != nil {
				return 0, err
			}
			return applyUnary(op, v)
		}
	case *Binary:
		l, r := resolveSlots(x.L, rule), resolveSlots(x.R, rule)
		switch x.Op {
		case "&&":
			return func(se *SlotEnv, env Env) (float64, error) {
				lv, err := l(se, env)
				if err != nil || !Truthy(lv) {
					return 0, err
				}
				rv, err := r(se, env)
				if err != nil {
					return 0, err
				}
				return boolVal(Truthy(rv)), nil
			}
		case "||":
			return func(se *SlotEnv, env Env) (float64, error) {
				lv, err := l(se, env)
				if err != nil {
					return 0, err
				}
				if Truthy(lv) {
					return 1, nil
				}
				rv, err := r(se, env)
				if err != nil {
					return 0, err
				}
				return boolVal(Truthy(rv)), nil
			}
		}
		op := x.Op
		return func(se *SlotEnv, env Env) (float64, error) {
			lv, err := l(se, env)
			if err != nil {
				return 0, err
			}
			rv, err := r(se, env)
			if err != nil {
				return 0, err
			}
			return applyBinary(op, lv, rv)
		}
	case *Cond:
		c, a, b := resolveSlots(x.C, rule), resolveSlots(x.A, rule), resolveSlots(x.B, rule)
		return func(se *SlotEnv, env Env) (float64, error) {
			cv, err := c(se, env)
			if err != nil {
				return 0, err
			}
			if Truthy(cv) {
				return a(se, env)
			}
			return b(se, env)
		}
	}
	// Unreachable with the parser's node set; fail closed if a new node
	// type forgets to extend this switch.
	return func(*SlotEnv, Env) (float64, error) {
		return 0, &UndefinedError{Kind: "variable", Name: "<unresolvable node>"}
	}
}
