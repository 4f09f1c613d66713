package expr

import "math"

// Fold performs constant folding: subtrees whose value does not depend on
// the environment are evaluated once at compile time. Model expressions
// are full of literal arithmetic (`8 * n`, `1024 * 1024`, guard constants)
// that the simulator would otherwise recompute on every element execution;
// both simulation backends and the analytic solver compile folded trees
// (ablation: BenchmarkExpr/compiled-folded). A constant subtree evaluates
// through the same closure builder as every other expression.
//
// Only total operations fold: division/remainder by a constant zero is
// left in place so evaluation reports the error with its environment, and
// short-circuit operators fold only when their outcome is decided by the
// left operand or both sides are constant.
func Fold(n Node) Node {
	folded, _ := fold(n)
	return folded
}

// constValue evaluates a subtree whose operands are all constants. ok is
// false when evaluation fails or the value is not finite: an infinity or
// NaN has no literal, so its subtree stays as written.
func constValue(n Node) (v float64, ok bool) {
	v, err := resolveSlots(n, byName)(nil, Builtins)
	return v, err == nil && !math.IsInf(v, 0) && !math.IsNaN(v)
}

// fold returns the folded node and whether it is a constant.
func fold(n Node) (Node, bool) {
	switch x := n.(type) {
	case *Num:
		return x, true
	case *Var:
		return x, false
	case *Call:
		args := make([]Node, len(x.Args))
		allConst := true
		for i, a := range x.Args {
			fa, c := fold(a)
			args[i] = fa
			allConst = allConst && c
		}
		out := &Call{Name: x.Name, Args: args}
		// Builtins are pure; user functions may be redefined per model,
		// so only builtins fold.
		if allConst && IsBuiltin(x.Name) {
			if v, ok := constValue(out); ok {
				return &Num{Value: v}, true
			}
		}
		return out, false
	case *Unary:
		fx, c := fold(x.X)
		out := &Unary{Op: x.Op, X: fx}
		if c {
			if v, ok := constValue(out); ok {
				return &Num{Value: v}, true
			}
		}
		return out, false
	case *Binary:
		fl, cl := fold(x.L)
		fr, cr := fold(x.R)
		out := &Binary{Op: x.Op, L: fl, R: fr}
		switch x.Op {
		case "&&":
			if cl {
				lv := fl.(*Num).Value
				if !Truthy(lv) {
					return &Num{Value: 0}, true
				}
				if cr {
					return &Num{Value: boolVal(Truthy(fr.(*Num).Value))}, true
				}
			}
			return out, false
		case "||":
			if cl {
				lv := fl.(*Num).Value
				if Truthy(lv) {
					return &Num{Value: 1}, true
				}
				if cr {
					return &Num{Value: boolVal(Truthy(fr.(*Num).Value))}, true
				}
			}
			return out, false
		case "/", "%":
			// Fold only when the divisor is a non-zero constant, so the
			// division-by-zero error surfaces at eval time, not silently
			// at fold time.
			if cl && cr && fr.(*Num).Value != 0 {
				if v, ok := constValue(out); ok {
					return &Num{Value: v}, true
				}
			}
			return out, false
		}
		if cl && cr {
			if v, ok := constValue(out); ok {
				return &Num{Value: v}, true
			}
		}
		return out, false
	case *Cond:
		fc, cc := fold(x.C)
		fa, ca := fold(x.A)
		fb, cb := fold(x.B)
		if cc {
			if Truthy(fc.(*Num).Value) {
				return fa, ca
			}
			return fb, cb
		}
		return &Cond{C: fc, A: fa, B: fb}, false
	default:
		return n, false
	}
}
