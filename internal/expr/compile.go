package expr

// Compiled is a parsed expression (folded, when built by
// CompileStringFolded) together with its by-name closure: the slot builder
// run with a layout that leaves every name dynamic, so each variable and
// function resolves through the Env passed to Eval. The simulator compiles
// every cost function and guard once before a run; the lowered backend
// re-resolves the same node against its slot layout (Resolve).
type Compiled struct {
	fn   slotted
	node Node
}

// Compile builds the by-name closure of a parsed expression.
func Compile(n Node) *Compiled {
	return &Compiled{fn: resolveSlots(n, byName), node: n}
}

// CompileString parses and compiles src.
func CompileString(src string) (*Compiled, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(n), nil
}

// CompileStringFolded parses src, constant-folds it, and compiles the
// result. The simulator compiles all model expressions this way; folding
// is semantics-preserving (see TestQuickFoldEquivalence).
func CompileStringFolded(src string) (*Compiled, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(Fold(n)), nil
}

// Eval evaluates the compiled expression in env. Like slot-resolved
// evaluation it allocates only the argument list of each function call.
func (c *Compiled) Eval(env Env) (float64, error) { return c.fn(nil, env) }

// String renders the normalized source of the compiled expression.
func (c *Compiled) String() string { return c.node.String() }
