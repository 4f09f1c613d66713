package cppgen

import (
	"fmt"
	"strconv"
	"strings"

	"prophet/internal/expr"
)

// RenderExpr translates a cost-function / guard expression to C++ source
// text. The expression language is deliberately C-like, so the translation
// is close to the identity; the two differences are the remainder operator
// (C++ '%' is integral only, so 'a % b' becomes 'fmod(a, b)') and fully
// parenthesized composite operands, which makes the emitted text
// precedence-proof. A parse error is returned as is; callers prefix it
// with what the expression belongs to.
func RenderExpr(src string) (string, error) {
	n, err := expr.Parse(src)
	if err != nil {
		return "", err
	}
	return renderNode(n), nil
}

func renderNode(n expr.Node) string {
	switch x := n.(type) {
	case *expr.Num:
		return strconv.FormatFloat(x.Value, 'g', -1, 64)
	case *expr.Var:
		return x.Name
	case *expr.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = renderNode(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *expr.Unary:
		return x.Op + renderOperand(x.X)
	case *expr.Binary:
		if x.Op == "%" {
			return "fmod(" + renderNode(x.L) + ", " + renderNode(x.R) + ")"
		}
		return renderOperand(x.L) + " " + x.Op + " " + renderOperand(x.R)
	case *expr.Cond:
		return renderOperand(x.C) + " ? " + renderOperand(x.A) + " : " + renderOperand(x.B)
	default:
		panic(fmt.Sprintf("cppgen: unknown expression node %T", n))
	}
}

func renderOperand(n expr.Node) string {
	switch n.(type) {
	case *expr.Num, *expr.Var, *expr.Call:
		return renderNode(n)
	}
	return "(" + renderNode(n) + ")"
}

// Identifier sanitizes a modeling-element name into a valid C++ identifier
// and applies the paper's instance-naming rule (Figure 4: the element
// Kernel6 maps to the class instance kernel6 — the first letter is
// lowercased). Characters that cannot appear in an identifier become '_'.
func Identifier(name string) string {
	var sb strings.Builder
	for i, r := range name {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		switch {
		case !ok:
			sb.WriteByte('_')
		case i == 0 && r >= 'A' && r <= 'Z':
			sb.WriteRune(r - 'A' + 'a')
		default:
			sb.WriteRune(r)
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}
