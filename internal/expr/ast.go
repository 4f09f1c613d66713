package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is a parsed expression node. Nodes are immutable after parsing;
// Compile builds the closure that evaluates one.
type Node interface {
	// String renders the node back to (normalized) source text.
	String() string
}

// Num is a numeric literal.
type Num struct{ Value float64 }

// Var is a variable reference.
type Var struct{ Name string }

// Call is a function application.
type Call struct {
	Name string
	Args []Node
}

// Unary is a prefix operation: "-" or "!".
type Unary struct {
	Op string
	X  Node
}

// Binary is an infix operation.
type Binary struct {
	Op   string
	L, R Node
}

// Cond is the conditional operator c ? a : b.
type Cond struct {
	C, A, B Node
}

func (n *Num) String() string { return strconv.FormatFloat(n.Value, 'g', -1, 64) }
func (n *Var) String() string { return n.Name }

func (n *Call) String() string {
	args := make([]string, len(n.Args))
	for i, a := range n.Args {
		args[i] = a.String()
	}
	return n.Name + "(" + strings.Join(args, ", ") + ")"
}

func (n *Unary) String() string { return n.Op + paren(n.X) }

func (n *Binary) String() string {
	return fmt.Sprintf("%s %s %s", paren(n.L), n.Op, paren(n.R))
}

func (n *Cond) String() string {
	return fmt.Sprintf("%s ? %s : %s", paren(n.C), paren(n.A), paren(n.B))
}

// paren wraps composite operands in parentheses so the rendered text
// re-parses to the same tree regardless of operator precedence.
func paren(n Node) string {
	switch n.(type) {
	case *Num, *Var, *Call:
		return n.String()
	}
	return "(" + n.String() + ")"
}

// Vars returns the set of free variable names referenced anywhere in the
// expression, in first-occurrence order.
func Vars(n Node) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Var:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
		case *Call:
			for _, a := range x.Args {
				walk(a)
			}
		case *Unary:
			walk(x.X)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Cond:
			walk(x.C)
			walk(x.A)
			walk(x.B)
		}
	}
	walk(n)
	return out
}

// Calls returns the set of function names invoked anywhere in the
// expression, in first-occurrence order. The transformation pipeline uses
// this to detect cost-function composition and to validate that every
// referenced function is defined in the model.
func Calls(n Node) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Call:
			if !seen[x.Name] {
				seen[x.Name] = true
				out = append(out, x.Name)
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *Unary:
			walk(x.X)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Cond:
			walk(x.C)
			walk(x.A)
			walk(x.B)
		}
	}
	walk(n)
	return out
}
