package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFoldConstants(t *testing.T) {
	cases := map[string]string{
		"1 + 2*3":        "7",
		"8 * 1024":       "8192",
		"sqrt(9) + 1":    "4",
		"-(2 + 3)":       "-5",
		"1 < 2":          "1",
		"1 > 2 && x":     "0", // short-circuit decided by left
		"1 < 2 || x":     "1",
		"0 && x":         "0",
		"1 ? 10 : x":     "10", // constant condition selects arm
		"0 ? x : 20":     "20",
		"10 / 2":         "5",
		"7 % 3":          "1",
		"x + (2*3)":      "x + 6",
		"(1+1) * x":      "2 * x",
		"pow(2, 10) * n": "1024 * n",
		"min(1, 2) + x":  "1 + x",
	}
	for src, want := range cases {
		n := MustParse(src)
		if got := Fold(n).String(); got != want {
			t.Errorf("Fold(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestFoldPreservesErrors(t *testing.T) {
	// Division by a constant zero must not fold away the error.
	for _, src := range []string{"1 / 0", "1 % 0", "x / 0"} {
		n := Fold(MustParse(src))
		if _, ok := n.(*Num); ok {
			t.Errorf("Fold(%q) should not produce a constant", src)
		}
		env := NewMapEnv()
		env.Set("x", 1)
		if _, err := Compile(n).Eval(env); err == nil {
			t.Errorf("Fold(%q) lost the runtime error", src)
		}
	}
	// User functions must not fold (they are model-defined).
	n := Fold(MustParse("F(1, 2)"))
	if _, ok := n.(*Num); ok {
		t.Error("user function call should not fold")
	}
}

func TestFoldVariablesUntouched(t *testing.T) {
	n := Fold(MustParse("a * b + c"))
	if got := n.String(); got != "a * b + c" {
		t.Errorf("variable expression altered: %q", got)
	}
}

// randomExpr builds a random expression over variables x and y.
func randomExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(20))
		case 1:
			return "x"
		default:
			return "y"
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[r.Intn(len(ops))]
	l := randomExpr(r, depth-1)
	rr := randomExpr(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("-(%s)", l)
	case 1:
		return fmt.Sprintf("!(%s)", l)
	case 2:
		return fmt.Sprintf("(%s) ? (%s) : (%s)", l, rr, randomExpr(r, depth-2))
	case 3:
		return fmt.Sprintf("min((%s), (%s))", l, rr)
	default:
		return fmt.Sprintf("(%s) %s (%s)", l, op, rr)
	}
}

// TestQuickFoldEquivalence: folding never changes the value (or the
// presence of an error) for arbitrary expressions and environments.
func TestQuickFoldEquivalence(t *testing.T) {
	f := func(seed int64, x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		src := randomExpr(r, 4)
		n, err := Parse(src)
		if err != nil {
			t.Logf("generator produced unparsable %q", src)
			return false
		}
		env := NewMapEnv()
		env.Set("x", x)
		env.Set("y", y)
		full := Chain{env, Builtins}
		v1, err1 := Compile(n).Eval(full)
		v2, err2 := Compile(Fold(n)).Eval(full)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("%q: error mismatch: %v vs %v", src, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			t.Logf("%q: %v vs %v", src, v1, v2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
