package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// slotRandomExpr builds a random expression over one always-defined local
// (x), one conditionally-defined local with a global shadow (y), one pure
// global (g) and one fallback-resolved name (p).
func slotRandomExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(20))
		case 1:
			return "x"
		case 2:
			return "y"
		case 3:
			return "g"
		default:
			return "p"
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[r.Intn(len(ops))]
	l := slotRandomExpr(r, depth-1)
	rr := slotRandomExpr(r, depth-1)
	switch r.Intn(6) {
	case 0:
		return fmt.Sprintf("-(%s)", l)
	case 1:
		return fmt.Sprintf("!(%s)", l)
	case 2:
		return fmt.Sprintf("(%s) ? (%s) : (%s)", l, rr, slotRandomExpr(r, depth-2))
	case 3:
		return fmt.Sprintf("max((%s), (%s))", l, rr)
	default:
		return fmt.Sprintf("(%s) %s (%s)", l, op, rr)
	}
}

// TestQuickSlotEquivalence: slot-resolved evaluation computes exactly what
// map-chain evaluation computes, for arbitrary expressions, values, and
// defined/undefined states of the conditional local.
func TestQuickSlotEquivalence(t *testing.T) {
	rules := map[string]SlotRule{
		"x": {Kind: SlotLocal, Local: 0, Global: -1},
		"y": {Kind: SlotLocalDyn, Local: 1, Global: 1},
		"g": {Kind: SlotGlobal, Local: -1, Global: 0},
	}
	rule := func(name string) SlotRule {
		if r, ok := rules[name]; ok {
			return r
		}
		return SlotRule{Kind: SlotDynamic, Local: -1, Global: -1}
	}

	f := func(seed int64, x, y, g, yg, p float64, yDefined bool) bool {
		for _, v := range []float64{x, y, g, yg, p} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := rand.New(rand.NewSource(seed))
		src := slotRandomExpr(r, 4)
		c, err := CompileString(src)
		if err != nil {
			t.Logf("generator produced unparsable %q", src)
			return false
		}

		// Reference: the interpreter's locals -> globals -> params chain.
		locals := NewMapEnv()
		locals.Set("x", x)
		if yDefined {
			locals.Set("y", y)
		}
		globals := NewMapEnv()
		globals.Set("g", g)
		globals.Set("y", yg)
		params := NewMapEnv()
		params.Set("p", p)
		ref := Chain{locals, globals, params, Builtins}

		se := &SlotEnv{
			Locals:   []float64{x, 0},
			Defined:  []bool{false, false},
			Globals:  []float64{g, yg},
			Fallback: Chain{params, Builtins},
		}
		if yDefined {
			se.Locals[1] = y
			se.Defined[1] = true
		}

		v1, err1 := c.Eval(ref)
		v2, err2 := c.Resolve(rule).Eval(se)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("%q: error mismatch: %v vs %v", src, err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if v1 != v2 && !(math.IsNaN(v1) && math.IsNaN(v2)) {
			t.Logf("%q: %v vs %v (yDefined=%v)", src, v1, v2, yDefined)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSlotDynFallthrough(t *testing.T) {
	c, err := CompileString("y + 1")
	if err != nil {
		t.Fatal(err)
	}
	s := c.Resolve(func(name string) SlotRule {
		if name == "y" {
			return SlotRule{Kind: SlotLocalDyn, Local: 0, Global: 0}
		}
		return SlotRule{Kind: SlotDynamic, Local: -1, Global: -1}
	})
	se := &SlotEnv{Locals: []float64{7}, Defined: []bool{false}, Globals: []float64{40}}
	if v, err := s.Eval(se); err != nil || v != 41 {
		t.Fatalf("undefined local should read global shadow: got %v, %v", v, err)
	}
	se.Defined[0] = true
	if v, err := s.Eval(se); err != nil || v != 8 {
		t.Fatalf("defined local should shadow global: got %v, %v", v, err)
	}
}

func TestSlotUndefinedWithoutFallback(t *testing.T) {
	c, err := CompileString("missing * 2")
	if err != nil {
		t.Fatal(err)
	}
	s := c.Resolve(func(string) SlotRule { return SlotRule{Kind: SlotDynamic, Local: -1, Global: -1} })
	if _, err := s.Eval(&SlotEnv{}); err == nil {
		t.Fatal("expected undefined-variable error")
	}
}

// benchSrc is shaped like a real model cost expression: locals, a global,
// and a system parameter mixed in one arithmetic tree.
const benchSrc = "base + i*scale + (n / processes) + tid"

// BenchmarkEvalMapChain is the interpreter's evaluation path: each
// variable reference walks the locals -> globals -> params map chain.
func BenchmarkEvalMapChain(b *testing.B) {
	c, err := CompileString(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	locals := NewMapEnv()
	locals.Set("i", 3)
	locals.Set("tid", 1)
	globals := NewMapEnv()
	globals.Set("base", 100)
	globals.Set("scale", 2.5)
	globals.Set("n", 4096)
	params := NewMapEnv()
	params.Set("processes", 4)
	env := Chain{locals, globals, params, Builtins}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalSlotted is the lowered backend's path: the same expression
// with every variable pre-resolved to a slot index.
func BenchmarkEvalSlotted(b *testing.B) {
	c, err := CompileString(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	rules := map[string]SlotRule{
		"i":         {Kind: SlotLocalDyn, Local: 0, Global: -1},
		"tid":       {Kind: SlotLocal, Local: 1, Global: -1},
		"base":      {Kind: SlotGlobal, Local: -1, Global: 0},
		"scale":     {Kind: SlotGlobal, Local: -1, Global: 1},
		"n":         {Kind: SlotGlobal, Local: -1, Global: 2},
		"processes": {Kind: SlotGlobal, Local: -1, Global: 3},
	}
	s := c.Resolve(func(name string) SlotRule {
		if r, ok := rules[name]; ok {
			return r
		}
		return SlotRule{Kind: SlotDynamic, Local: -1, Global: -1}
	})
	se := &SlotEnv{
		Locals:  []float64{3, 1},
		Defined: []bool{true, true},
		Globals: []float64{100, 2.5, 4096, 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Eval(se); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCallAllocs pins the cost of a call on the slotted path: a builtin
// call allocates nothing, a user-function call only its frame.
func TestCallAllocs(t *testing.T) {
	lib, err := NewLibrary([]Def{{Name: "F", Params: []string{"a"}, Body: "2*a + 1"}})
	if err != nil {
		t.Fatal(err)
	}
	global := func(string) SlotRule { return SlotRule{Kind: SlotGlobal, Global: 0} }
	for _, c := range []struct {
		src       string
		want      float64
		maxAllocs float64
	}{
		{"sqrt(x) + max(x, 1)", 20, 0},
		{"F(x)", 33, 1},
	} {
		s := Compile(MustParse(c.src)).Resolve(global)
		se := &SlotEnv{Globals: []float64{16}, Fallback: lib.Bind(nil)}
		if v, err := s.Eval(se); err != nil || v != c.want {
			t.Fatalf("%s = %v, %v; want %v", c.src, v, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = s.Eval(se) }); n > c.maxAllocs {
			t.Errorf("%s: %v allocs per call, want at most %v", c.src, n, c.maxAllocs)
		}
	}
}
