package expr

import (
	"math"
	"testing"
)

// fuzzEnv binds a handful of variables, including non-finite values, so
// evaluation exercises the NaN/Inf paths of every operator.
type fuzzEnv struct{}

func (fuzzEnv) Var(name string) (float64, bool) {
	switch name {
	case "x":
		return 2.5, true
	case "zero":
		return 0, true
	case "inf":
		return math.Inf(1), true
	case "nan":
		return math.NaN(), true
	}
	return 0, false
}

func (fuzzEnv) Func(name string) (Func, bool) { return Builtins.Func(name) }

// fuzzSlots places x in a local slot and zero in a global slot, with the
// values fuzzEnv binds them to; every other name stays dynamic.
func fuzzSlots(name string) SlotRule {
	switch name {
	case "x":
		return SlotRule{Kind: SlotLocal, Local: 0}
	case "zero":
		return SlotRule{Kind: SlotGlobal, Global: 0}
	}
	return SlotRule{Kind: SlotDynamic}
}

// FuzzEval hardens compilation and evaluation: whatever parses must
// compile and evaluate without panicking (NaN/Inf results are legal —
// models carry measured times, and measurements go bad), evaluation must
// be deterministic, and neither constant folding nor slot resolution may
// change the outcome or the value.
func FuzzEval(f *testing.F) {
	for _, seed := range []string{
		"x + 1",
		"1/zero",
		"0/0",
		"inf - inf",
		"nan == nan",
		"1e309 * 2",
		"-1 % 0",
		"sqrt(-1)",
		"log(zero)",
		"x > 0 ? inf : nan",
		"min(nan, 1) + max(inf, 2)",
		"pow(0, -1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		c, err := CompileString(src)
		if err != nil {
			return
		}
		v1, err1 := c.Eval(fuzzEnv{})
		v2, err2 := c.Eval(fuzzEnv{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("evaluation not deterministic: %v vs %v", err1, err2)
		}
		if err1 == nil && !sameFloat(v1, v2) {
			t.Fatalf("evaluation not deterministic: %g vs %g", v1, v2)
		}
		// Folding happens on constant subtrees only, so it must preserve
		// both the outcome and the value bit for bit.
		folded := Compile(Fold(n))
		v3, err3 := folded.Eval(fuzzEnv{})
		if (err1 == nil) != (err3 == nil) {
			t.Fatalf("folding changed the outcome of %q: %v vs %v", src, err1, err3)
		}
		if err1 == nil && !sameFloat(v1, v3) {
			t.Fatalf("folding changed the value of %q: %g vs %g", src, v1, v3)
		}
		// Reading x and zero from slots must match reading them by name,
		// error text included.
		se := &SlotEnv{Locals: []float64{2.5}, Globals: []float64{0}, Fallback: fuzzEnv{}}
		v4, err4 := c.Resolve(fuzzSlots).Eval(se)
		if (err1 == nil) != (err4 == nil) || err1 != nil && err1.Error() != err4.Error() {
			t.Fatalf("slot resolution changed the outcome of %q: %v vs %v", src, err1, err4)
		}
		if err1 == nil && !sameFloat(v1, v4) {
			t.Fatalf("slot resolution changed the value of %q: %g vs %g", src, v1, v4)
		}
	})
}

// sameFloat treats two NaNs as equal and otherwise compares bit for bit.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
