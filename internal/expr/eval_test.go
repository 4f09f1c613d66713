package expr

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func evalOK(t *testing.T, src string, env Env) float64 {
	t.Helper()
	v, err := Eval(src, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	env := NewMapEnv()
	env.Set("x", 4)
	env.Set("y", 3)
	cases := []struct {
		src  string
		want float64
	}{
		{"1+2", 3},
		{"2*3+4", 10},
		{"2*(3+4)", 14},
		{"10/4", 2.5},
		{"7%3", 1},
		{"7.5 % 2", 1.5},
		{"-x", -4},
		{"x-y", 1},
		{"x*y - y", 9},
		{"1e2 + 1", 101},
		{"x == 4", 1},
		{"x != 4", 0},
		{"x < y", 0},
		{"x > y", 1},
		{"x >= 4", 1},
		{"x <= 3.9", 0},
		{"x > 0 && y > 0", 1},
		{"x > 5 || y > 0", 1},
		{"x > 5 && y > 0", 0},
		{"!(x > 5)", 1},
		{"!x", 0},
		{"!0", 1},
		{"x > y ? 100 : 200", 100},
		{"x < y ? 100 : 200", 200},
	}
	for _, c := range cases {
		if got := evalOK(t, c.src, env); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalBuiltins(t *testing.T) {
	env := Chain{Builtins}
	cases := []struct {
		src  string
		want float64
	}{
		{"sqrt(9)", 3},
		{"abs(-2.5)", 2.5},
		{"pow(2, 10)", 1024},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"floor(1.9)", 1},
		{"ceil(1.1)", 2},
		{"round(1.5)", 2},
		{"log(exp(1))", 1},
		{"log2(8)", 3},
		{"log10(1000)", 3},
		{"cbrt(27)", 3},
	}
	for _, c := range cases {
		got := evalOK(t, c.src, env)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	if v := evalOK(t, "sin(0) + cos(0) + tan(0)", env); math.Abs(v-1) > 1e-12 {
		t.Errorf("trig identities broken: %v", v)
	}
}

func TestEvalErrors(t *testing.T) {
	env := NewMapEnv()
	env.Set("x", 1)

	_, err := Eval("y + 1", env)
	var ue *UndefinedError
	if !errors.As(err, &ue) || ue.Kind != "variable" || ue.Name != "y" {
		t.Errorf("undefined variable error wrong: %v", err)
	}

	_, err = Eval("nope(1)", env)
	if !errors.As(err, &ue) || ue.Kind != "function" {
		t.Errorf("undefined function error wrong: %v", err)
	}

	if _, err := Eval("1/0", env); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("division by zero should error, got %v", err)
	}
	if _, err := Eval("1%0", env); err == nil {
		t.Errorf("remainder by zero should error")
	}
	if _, err := Eval("x/(x-1)", env); err == nil {
		t.Errorf("runtime division by zero should error")
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The right operand of && / || must not be evaluated when the left
	// operand decides the result; otherwise this would hit an undefined
	// variable.
	env := NewMapEnv()
	env.Set("x", 0)
	if v := evalOK(t, "x && undefined_var", env); v != 0 {
		t.Errorf("short-circuit && = %v, want 0", v)
	}
	env.Set("x", 1)
	if v := evalOK(t, "x || undefined_var", env); v != 1 {
		t.Errorf("short-circuit || = %v, want 1", v)
	}
}

func TestBuiltinArityChecks(t *testing.T) {
	env := Chain{Builtins}
	for _, src := range []string{"sqrt()", "sqrt(1,2)", "pow(1)", "min()", "max()"} {
		if _, err := Eval(src, env); err == nil {
			t.Errorf("Eval(%q) should fail with arity error", src)
		}
	}
}

func TestCompiledString(t *testing.T) {
	c, err := CompileString("1 +  2")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "1 + 2" {
		t.Errorf("Compiled.String = %q", c.String())
	}
	if _, err := CompileString("1 +"); err == nil {
		t.Errorf("CompileString should propagate parse errors")
	}
}

func TestChainEnvOrder(t *testing.T) {
	inner := NewMapEnv()
	inner.Set("x", 1)
	outer := NewMapEnv()
	outer.Set("x", 2)
	outer.Set("y", 3)
	env := Chain{inner, outer, nil, Builtins}
	if v, _ := env.Var("x"); v != 1 {
		t.Errorf("Chain should prefer earlier envs: x = %v", v)
	}
	if v, _ := env.Var("y"); v != 3 {
		t.Errorf("Chain should fall through: y = %v", v)
	}
	if _, ok := env.Var("z"); ok {
		t.Errorf("unbound name should not resolve")
	}
	if _, ok := env.Func("sqrt"); !ok {
		t.Errorf("Chain should find builtin functions")
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(0) {
		t.Error("0 is false")
	}
	if !Truthy(1) || !Truthy(-0.5) {
		t.Error("non-zero is true")
	}
}

func TestBuiltinNames(t *testing.T) {
	names := BuiltinNames()
	if len(names) != len(builtinFuncs) {
		t.Errorf("BuiltinNames len = %d, want %d", len(names), len(builtinFuncs))
	}
	if !IsBuiltin("sqrt") || IsBuiltin("FA1") {
		t.Errorf("IsBuiltin misclassifies")
	}
}
