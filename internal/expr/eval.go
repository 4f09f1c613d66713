package expr

import (
	"fmt"
	"math"
)

// Truthy reports whether a value is true under the language's C semantics.
func Truthy(v float64) bool { return v != 0 }

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func applyUnary(op string, x float64) (float64, error) {
	switch op {
	case "-":
		return -x, nil
	case "!":
		return boolVal(!Truthy(x)), nil
	}
	return 0, fmt.Errorf("expr: unknown unary operator %q", op)
}

func applyBinary(op string, l, r float64) (float64, error) {
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero")
		}
		return l / r, nil
	case "%":
		if r == 0 {
			return 0, fmt.Errorf("expr: remainder by zero")
		}
		return math.Mod(l, r), nil
	case "==":
		return boolVal(l == r), nil
	case "!=":
		return boolVal(l != r), nil
	case "<":
		return boolVal(l < r), nil
	case "<=":
		return boolVal(l <= r), nil
	case ">":
		return boolVal(l > r), nil
	case ">=":
		return boolVal(l >= r), nil
	}
	return 0, fmt.Errorf("expr: unknown binary operator %q", op)
}

// Eval parses and evaluates src in one step. Prefer Compile when the same
// expression is evaluated repeatedly.
func Eval(src string, env Env) (float64, error) {
	n, err := Parse(src)
	if err != nil {
		return 0, err
	}
	return resolveSlots(n, byName)(nil, env)
}
