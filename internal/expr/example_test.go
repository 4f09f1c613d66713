package expr_test

import (
	"fmt"

	"prophet/internal/expr"
)

func ExampleEval() {
	env := expr.NewMapEnv()
	env.Set("N", 1000)
	env.Set("M", 10)
	env.Set("c", 1e-9)
	v, err := expr.Eval("M * (N-1) * N / 2 * c", expr.Chain{env, expr.Builtins})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.6f\n", v)
	// Output: 0.004995
}

func ExampleCompile() {
	n := expr.MustParse("base + work / processes")
	compiled := expr.Compile(n)
	env := expr.NewMapEnv()
	env.Set("base", 1)
	env.Set("work", 12)
	for _, p := range []float64{1, 2, 4} {
		env.Set("processes", p)
		v, _ := compiled.Eval(env)
		fmt.Println(v)
	}
	// Output:
	// 13
	// 7
	// 4
}

func ExampleNewLibrary() {
	lib, err := expr.NewLibrary([]expr.Def{
		{Name: "FBlock", Params: []string{"n"}, Body: "n * cost"},
		{Name: "FTotal", Body: "FBlock(rows) + FBlock(cols)"},
	})
	if err != nil {
		panic(err)
	}
	outer := expr.NewMapEnv()
	outer.Set("cost", 2)
	outer.Set("rows", 3)
	outer.Set("cols", 4)
	v, _ := expr.Eval("FTotal()", lib.Bind(outer))
	fmt.Println(v)
	// Output: 14
}

func ExampleFold() {
	n := expr.MustParse("8 * 1024 * n + pow(2, 10)")
	fmt.Println(expr.Fold(n))
	// Output: 8192 * n + 1024
}
