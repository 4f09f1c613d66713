package expr

import (
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

func (n *Unary) String() string { return n.Op + operand(n.X, 5) }

// Every binary level is left-associative, so a right operand at the
// operator's own level needs parentheses and a left one does not.
func (n *Binary) String() string {
	p := binaryPrec(n.Op)
	return operand(n.L, p) + " " + n.Op + " " + operand(n.R, p+1)
}

// The condition of c ? a : b is an or-chain; a branch may be a conditional.
func (n *Cond) String() string {
	return operand(n.C, 0) + " ? " + n.A.String() + " : " + n.B.String()
}

// binaryPrec is the level of a binary operator, as binaryOp assigns it.
func binaryPrec(op string) int {
	switch op {
	case "||":
		return 0
	case "&&":
		return 1
	case "+", "-":
		return 3
	case "*", "/", "%":
		return 4
	}
	return 2 // comparisons
}

// operand renders n where the grammar (see Parse) needs an operand of at
// least the given level: -1 for a conditional, binaryOp's 0 to 4, 5 for
// unary. Parentheses go only around an n that binds more loosely, so a
// normal form is never deeper than its source and stays within MaxDepth.
// A negative literal prints as a unary minus and binds like one.
func operand(n Node, level int) string {
	prec := 5
	switch x := n.(type) {
	case *Cond:
		prec = -1
	case *Binary:
		prec = binaryPrec(x.Op)
	}
	if prec < level {
		return "(" + n.String() + ")"
	}
	return n.String()
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
