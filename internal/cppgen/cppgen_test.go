package cppgen

import (
	"strings"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/profile"
	"prophet/internal/samples"
	"prophet/internal/traverse"
	"prophet/internal/uml"
)

// goldenSample is the full C++ representation of the paper's sample model
// (Figure 8): global variables, one cost function per performance modeling
// element, declarations of {A1, A2, A4, SA1, SA2}, the code fragment
// associated with A1 inlined before its execute() call, the branch mapped
// to if/else, and the content of activity SA nested within the main flow.
const goldenSample = `// Performance Model of Program (PMP)
// model: sample
// generated by prophet: automatic UML -> C++ performance model transformation

#include "pmp_runtime.h"

// -- Global variables --
double GV;
double P;

// -- Cost functions --
double FA1() {
    return 0.5 + (2 * P);
}

double FA2() {
    return 3 * P;
}

double FA4() {
    return 1 + P;
}

double FSA1() {
    return 5;
}

double FSA2(double pid) {
    return 0.1 * (pid + 1);
}

// -- Program --
void model_program(int uid, int pid, int tid) {
    // -- Local variables --

    // -- Performance modeling elements --
    ActionPlus a1("A1", 1);
    ActionPlus a2("A2", 3);
    ActionPlus a4("A4", 4);
    ActionPlus sA1("SA1", 5);
    ActionPlus sA2("SA2", 6);

    // -- Execution flow --
    // code associated with A1
    GV = 10;
    P = 4;
    a1.execute(uid, pid, tid, FA1());
    if (GV > 0) {
        // activity SA
        sA1.execute(uid, pid, tid, FSA1());
        sA2.execute(uid, pid, tid, FSA2(pid));
    } else {
        a2.execute(uid, pid, tid, FA2());
    }
    a4.execute(uid, pid, tid, FA4());
}
`

// TestFigure8Golden is the FIG8 experiment: the generated C++ of the
// sample model, byte for byte.
func TestFigure8Golden(t *testing.T) {
	out, err := New().Generate(samples.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if out != goldenSample {
		t.Errorf("generated C++ differs from Figure 8 golden.\n--- got ---\n%s\n--- want ---\n%s", out, goldenSample)
	}
}

// goldenKernel6 locks the complete C++ representation of the collapsed
// kernel 6 model (Figure 4's transition applied to the whole model).
const goldenKernel6 = `// Performance Model of Program (PMP)
// model: kernel6
// generated by prophet: automatic UML -> C++ performance model transformation

#include "pmp_runtime.h"

// -- Global variables --
double N;
double M;
double c;

// -- Cost functions --
double FK6() {
    return (((M * (N - 1)) * N) / 2) * c;
}

// -- Program --
void model_program(int uid, int pid, int tid) {
    // -- Local variables --

    // -- Performance modeling elements --
    ActionPlus kernel6("Kernel6", 1);

    // -- Execution flow --
    kernel6.execute(uid, pid, tid, FK6());
}
`

func TestKernel6Golden(t *testing.T) {
	out, err := New().Generate(samples.Kernel6())
	if err != nil {
		t.Fatal(err)
	}
	if out != goldenKernel6 {
		t.Errorf("kernel6 C++ differs from golden:\n--- got ---\n%s\n--- want ---\n%s", out, goldenKernel6)
	}
}

// TestFigure4Kernel6 is the FIG4 experiment: the UML -> C++ transition for
// kernel 6. The element Kernel6 maps to the instance kernel6 of class
// ActionPlus, executed with its cost function FK6 as argument.
func TestFigure4Kernel6(t *testing.T) {
	out, err := New().Generate(samples.Kernel6())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`ActionPlus kernel6("Kernel6", 1);`,
		`kernel6.execute(uid, pid, tid, FK6());`,
		"double FK6() {",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("kernel6 C++ missing %q:\n%s", want, out)
		}
	}
}

func TestKernel6DetailedLoopNest(t *testing.T) {
	out, err := New().Generate(samples.Kernel6Detailed())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"for (int L = 0; L < (int)(M); ++L) { // loop LoopL",
		"for (int iIdx = 0; iIdx < (int)(N - 1); ++iIdx) { // loop LoopI",
		"for (int k = 0; k < (int)(iIdx + 1); ++k) { // loop LoopK",
		"w.execute(uid, pid, tid, FW());",
		"// code associated with W",
		"W(i) = W(i) + B(i,k) * W(i-k)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("detailed kernel6 C++ missing %q:\n%s", want, out)
		}
	}
	// Loops must nest in order L > i > k.
	lPos := strings.Index(out, "loop LoopL")
	iPos := strings.Index(out, "loop LoopI")
	kPos := strings.Index(out, "loop LoopK")
	if !(lPos < iPos && iPos < kPos) {
		t.Errorf("loop nesting order wrong: L@%d i@%d k@%d", lPos, iPos, kPos)
	}
}

func TestDeclarationOrderMatchesTraversal(t *testing.T) {
	out, err := New().Generate(samples.Sample())
	if err != nil {
		t.Fatal(err)
	}
	// Paper's Figure 8b declares {A1, A2, A4, SA1, SA2} in this order.
	prev := -1
	for _, decl := range []string{`"A1"`, `"A2"`, `"A4"`, `"SA1"`, `"SA2"`} {
		pos := strings.Index(out, "ActionPlus "+Identifier(strings.Trim(decl, `"`)))
		if pos < 0 {
			t.Fatalf("missing declaration for %s", decl)
		}
		if pos < prev {
			t.Errorf("declaration %s out of order", decl)
		}
		prev = pos
	}
}

func TestActivityNotDeclaredWithoutCost(t *testing.T) {
	out, err := New().Generate(samples.Sample())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "ActivityPlus") {
		t.Errorf("activity SA carries no cost function and must not be declared:\n%s", out)
	}
}

func TestActivityDeclaredWithAggregateCost(t *testing.T) {
	b := builder.New("m")
	b.Function("FSA", nil, "7")
	d := b.Diagram("main")
	d.Initial()
	d.Activity("SA", "SA").Cost("FSA()")
	d.Final()
	d.Chain("initial", "SA", "final")
	sub := b.Diagram("SA")
	sub.Initial()
	sub.Final()
	sub.Chain("initial", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `ActivityPlus sA("SA", 0);`) {
		t.Errorf("activity with cost function should be declared:\n%s", out)
	}
	if !strings.Contains(out, "sA.execute(uid, pid, tid, FSA());") {
		t.Errorf("activity with cost function should execute:\n%s", out)
	}
}

func TestElseIfChain(t *testing.T) {
	b := builder.New("m")
	b.Global("GV", "double")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A").Cost("F()")
	d.Action("B").Cost("F()")
	d.Action("C").Cost("F()")
	d.Merge("mrg")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "GV > 10")
	d.FlowIf("dec", "B", "GV > 5")
	d.FlowIf("dec", "C", "else")
	d.Chain("A", "mrg")
	d.Chain("B", "mrg")
	d.Chain("C", "mrg", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{
		"if (GV > 10) {",
		"a.execute(",
		"} else if (GV > 5) {",
		"b.execute(",
		"} else {",
		"c.execute(",
		"}",
	}
	pos := 0
	for _, want := range wantOrder {
		idx := strings.Index(out[pos:], want)
		if idx < 0 {
			t.Fatalf("missing or out of order: %q\n%s", want, out)
		}
		pos += idx + len(want)
	}
}

func TestBranchesWithoutElse(t *testing.T) {
	b := builder.New("m")
	b.Global("GV", "double")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A").Cost("F()")
	d.Action("B").Cost("F()")
	d.Merge("mrg")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "GV > 0")
	d.FlowIf("dec", "B", "GV <= 0")
	d.Chain("A", "mrg")
	d.Chain("B", "mrg", "final")
	m, _ := b.Build()
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "} else {") {
		t.Errorf("no else branch expected:\n%s", out)
	}
	if !strings.Contains(out, "} else if (GV <= 0) {") {
		t.Errorf("second guard should be else-if:\n%s", out)
	}
}

func TestBranchesConvergeAtFinal(t *testing.T) {
	// Branches that meet only at the final node: nothing after the chain.
	b := builder.New("m")
	b.Global("GV", "double")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A").Cost("F()")
	d.Action("B").Cost("F()")
	d.Final()
	d.Flow("initial", "dec")
	d.FlowIf("dec", "A", "GV > 0")
	d.FlowIf("dec", "B", "else")
	d.Chain("A", "final")
	d.Chain("B", "final")
	m, _ := b.Build()
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "if (GV > 0) {") || !strings.Contains(out, "} else {") {
		t.Errorf("branch missing:\n%s", out)
	}
}

func TestForkJoinParSection(t *testing.T) {
	b := builder.New("m")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Fork("fork")
	d.Action("A").Cost("F()")
	d.Action("B").Cost("F()")
	d.Join("join")
	d.Action("After").Cost("F()")
	d.Final()
	d.Flow("initial", "fork")
	d.Flow("fork", "A")
	d.Flow("fork", "B")
	d.Flow("A", "join")
	d.Flow("B", "join")
	d.Chain("join", "After", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PAR_BEGIN // fork", "PAR_BRANCH {", "PAR_END // join", "after.execute("} {
		if !strings.Contains(out, want) {
			t.Errorf("fork/join C++ missing %q:\n%s", want, out)
		}
	}
	// After must come after PAR_END.
	if strings.Index(out, "after.execute(") < strings.Index(out, "PAR_END") {
		t.Errorf("post-join code emitted before join:\n%s", out)
	}
}

func TestMPIExecuteSignatures(t *testing.T) {
	m := samples.Pipeline(1)
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `MpiSend send0("Send0", 2);`) {
		t.Errorf("MpiSend declaration missing:\n%s", out)
	}
	if !strings.Contains(out, "send0.execute(uid, pid, tid, /*dest*/ fmod(pid + 1, processes), /*size*/ 1024);") {
		t.Errorf("MpiSend execute missing:\n%s", out)
	}
}

func TestMPIAllVariants(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.MPI("S", profile.MPISend).Tag("dest", "1").Tag("size", "64")
	d.MPI("R", profile.MPIRecv).Tag("src", "0")
	d.MPI("SR", profile.MPISendrecv).Tag("dest", "1").Tag("src", "0").Tag("size", "32")
	d.MPI("Bar", profile.MPIBarrier)
	d.MPI("Bc", profile.MPIBroadcast).Tag("size", "128")
	d.MPI("Rd", profile.MPIReduce).Tag("size", "8")
	d.Final()
	d.Chain("initial", "S", "R", "SR", "Bar", "Bc", "Rd", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"s.execute(uid, pid, tid, /*dest*/ 1, /*size*/ 64);",
		"r.execute(uid, pid, tid, /*src*/ 0);",
		"sR.execute(uid, pid, tid, /*dest*/ 1, /*src*/ 0, /*size*/ 32);",
		"bar.execute(uid, pid, tid);",
		"bc.execute(uid, pid, tid, /*root*/ 0, /*size*/ 128);",
		"rd.execute(uid, pid, tid, /*root*/ 0, /*size*/ 8);",
		"MpiSend s(", "MpiRecv r(", "MpiSendrecv sR(", "MpiBarrier bar(", "MpiBcast bc(", "MpiReduce rd(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLocalVariablesEmitted(t *testing.T) {
	b := builder.New("m")
	b.Local("tmp", "int")
	b.LocalInit("acc", "double", "0")
	b.GlobalInit("P", "double", "4")
	d := b.Diagram("main")
	d.Initial()
	d.Final()
	d.Chain("initial", "final")
	m, _ := b.Build()
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"double P = 4;", "int tmp;", "double acc = 0;"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Locals inside the function, globals outside.
	fnPos := strings.Index(out, "void model_program")
	if strings.Index(out, "int tmp;") < fnPos {
		t.Errorf("local emitted outside program body")
	}
	if strings.Index(out, "double P = 4;") > fnPos {
		t.Errorf("global emitted inside program body")
	}
}

// TestTimeTagFallbackCpp: an <<action+>> with only a `time` tag charges
// that expression in the generated execute() call (Figure 1b).
func TestTimeTagFallbackCpp(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("SampleAction").Tag("id", "1").Tag("time", "10")
	d.Final()
	d.Chain("initial", "SampleAction", "final")
	m, _ := b.Build()
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sampleAction.execute(uid, pid, tid, 10);") {
		t.Errorf("time tag should become the cost argument:\n%s", out)
	}
}

func TestUnstereotypedActionSkipped(t *testing.T) {
	m := uml.NewModel("m")
	d, _ := m.AddDiagram("main")
	i, _ := m.AddControl(d, "", uml.KindInitial)
	a, _ := m.AddAction(d, "", "Plain")
	f, _ := m.AddControl(d, "", uml.KindFinal)
	d.Connect(i.ID(), a.ID(), "")
	d.Connect(a.ID(), f.ID(), "")
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plain.execute") || strings.Contains(out, `"Plain"`) {
		t.Errorf("unstereotyped action should be skipped:\n%s", out)
	}
}

func TestGenerateErrors(t *testing.T) {
	t.Run("unstructured cycle", func(t *testing.T) {
		b := builder.New("m")
		b.Function("F", nil, "1")
		d := b.Diagram("main")
		d.Initial()
		d.Action("A").Cost("F()")
		d.Action("B").Cost("F()")
		d.Final()
		d.Chain("initial", "A", "B", "A") // cycle A->B->A
		m, _ := b.Build()
		if _, err := New().Generate(m); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Errorf("unstructured cycle should fail: %v", err)
		}
	})
	t.Run("missing activity body", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		i, _ := m.AddControl(d, "", uml.KindInitial)
		sa, _ := m.AddActivity(d, "", "SA", "ghost")
		sa.SetStereotype(profile.ActivityPlus)
		f, _ := m.AddControl(d, "", uml.KindFinal)
		d.Connect(i.ID(), sa.ID(), "")
		d.Connect(sa.ID(), f.ID(), "")
		if _, err := New().Generate(m); err == nil {
			t.Error("missing body diagram should fail")
		}
	})
	t.Run("bad cost function expr", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		i, _ := m.AddControl(d, "", uml.KindInitial)
		a, _ := m.AddAction(d, "", "A")
		a.SetStereotype(profile.ActionPlus)
		a.SetCostFunc("F(")
		f, _ := m.AddControl(d, "", uml.KindFinal)
		d.Connect(i.ID(), a.ID(), "")
		d.Connect(a.ID(), f.ID(), "")
		if _, err := New().Generate(m); err == nil {
			t.Error("malformed cost function should fail")
		}
	})
	t.Run("bad function body", func(t *testing.T) {
		m := uml.NewModel("m")
		m.AddFunction(uml.Function{Name: "F", Body: "1 +"})
		if _, err := New().Generate(m); err == nil {
			t.Error("malformed function body should fail")
		}
	})
	t.Run("unknown stereotype", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		i, _ := m.AddControl(d, "", uml.KindInitial)
		a, _ := m.AddAction(d, "", "A")
		a.SetStereotype("action+")
		f, _ := m.AddControl(d, "", uml.KindFinal)
		d.Connect(i.ID(), a.ID(), "")
		d.Connect(a.ID(), f.ID(), "")
		// Force an unknown stereotype past selection by using a custom
		// registry that recognizes it as performance-relevant.
		reg := profile.NewRegistry()
		reg.Register(&profile.Stereotype{Name: "martian+", Base: uml.KindAction})
		a.SetStereotype("martian+")
		g := NewWith(reg, DefaultOptions())
		if _, err := g.Generate(m); err == nil || !strings.Contains(err.Error(), "martian") {
			t.Errorf("unknown stereotype should fail with a clear error: %v", err)
		}
	})
	t.Run("missing mpi tag", func(t *testing.T) {
		m := uml.NewModel("m")
		d, _ := m.AddDiagram("main")
		i, _ := m.AddControl(d, "", uml.KindInitial)
		a, _ := m.AddAction(d, "", "S")
		a.SetStereotype(profile.MPISend) // no dest/size tags
		f, _ := m.AddControl(d, "", uml.KindFinal)
		d.Connect(i.ID(), a.ID(), "")
		d.Connect(a.ID(), f.ID(), "")
		if _, err := New().Generate(m); err == nil {
			t.Error("mpi_send without dest should fail")
		}
	})
}

func TestIdentifier(t *testing.T) {
	cases := map[string]string{
		"Kernel6":  "kernel6", // Figure 4's mapping rule
		"A1":       "a1",
		"SA1":      "sA1",
		"already":  "already",
		"With Gap": "with_Gap",
		"9lives":   "_lives",
		"":         "_",
		"x-y":      "x_y",
		"_ok":      "_ok",
	}
	for in, want := range cases {
		if got := Identifier(in); got != want {
			t.Errorf("Identifier(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIdentifierCollisionResolved(t *testing.T) {
	// "A1" and "a1" sanitize to the same identifier; the generator must
	// keep them distinct.
	b := builder.New("m")
	b.Function("F", nil, "1")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A1").Cost("F()")
	d.Action("a1").Cost("F()")
	d.Final()
	d.Chain("initial", "A1", "a1", "final")
	m, _ := b.Build()
	out, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `ActionPlus a1("A1"`) || !strings.Contains(out, `ActionPlus a1_("a1"`) {
		t.Errorf("identifier collision not resolved:\n%s", out)
	}
}

func TestRenderExpr(t *testing.T) {
	cases := map[string]string{
		"1+2*3":     "1 + (2 * 3)",
		"a % b":     "fmod(a, b)",
		"a ? b : c": "a ? b : c",
		"-x":        "-x",
		"!(a && b)": "!(a && b)",
		"f(x, y+1)": "f(x, y + 1)",
		"(a+b) % 2": "fmod(a + b, 2)",
	}
	for in, want := range cases {
		got, err := RenderExpr(in)
		if err != nil {
			t.Errorf("RenderExpr(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("RenderExpr(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := RenderExpr("1 +"); err == nil {
		t.Error("malformed expression should fail")
	}
}

func TestOptions(t *testing.T) {
	g := NewWith(profile.NewRegistry(), Options{Header: "my.h", FunctionName: "run", Banner: false})
	out, err := g.Generate(samples.Kernel6())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "// Performance Model of Program") {
		t.Errorf("banner should be suppressed")
	}
	if !strings.Contains(out, `#include "my.h"`) || !strings.Contains(out, "void run(") {
		t.Errorf("options not honored:\n%s", out)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := New()
	m := samples.Sample()
	a, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestHandlerIntegration(t *testing.T) {
	// The C++ generator as a ContentHandler behind the Figure 6 machinery:
	// same output as calling Generate directly, with either navigator.
	m := samples.Sample()
	direct, err := New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, nav := range []traverse.Navigator{
		traverse.NewRecursiveNavigator(),
		traverse.NewStackNavigator(),
	} {
		h := NewHandler(nil)
		if err := traverse.NewTraverser().Traverse(m, nav, h); err != nil {
			t.Fatal(err)
		}
		out, done := h.Output()
		if !done {
			t.Fatal("handler did not complete")
		}
		if out != direct {
			t.Errorf("handler output differs from direct generation")
		}
	}
}

func TestHandlerMisuse(t *testing.T) {
	h := NewHandler(nil)
	if _, done := h.Output(); done {
		t.Error("fresh handler should not be done")
	}
	err := h.Visit(traverse.Event{Phase: traverse.LeaveModel})
	if err == nil {
		t.Error("LeaveModel before EnterModel should fail")
	}
}

func TestEmptyModel(t *testing.T) {
	out, err := New().Generate(uml.NewModel("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "void model_program") {
		t.Errorf("even an empty model yields a program shell:\n%s", out)
	}
}

// TestGenerateExprErrorText pins the full error text for a malformed
// expression in each place the flow emitter renders one: a single
// "cppgen: " prefix, the owning element, then the parser's own message.
func TestGenerateExprErrorText(t *testing.T) {
	const parseErr = `expr: expected operand, found end of expression at offset 3 in "1 +"`
	for _, tc := range []struct {
		name  string
		build func(b *builder.ModelBuilder, d *builder.DiagramBuilder)
		want  string
	}{
		{"guard", func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Decision("D")
			d.Action("A").Cost("1")
			d.Action("B").Cost("2")
			d.Merge("M")
			d.Flow("initial", "D").FlowIf("D", "A", "1 +").FlowIf("D", "B", "else")
			d.Chain("A", "M", "final").Flow("B", "M")
		}, `cppgen: diagram "main": guard "1 +": ` + parseErr},
		{"cost", func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.Action("A").Cost("1 +")
			d.Chain("initial", "A", "final")
		}, `cppgen: element "A" cost function: ` + parseErr},
		{"tag", func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			d.MPI("S", profile.MPISend).Tag(profile.TagDest, "1 +").Tag(profile.TagSize, "8")
			d.Chain("initial", "S", "final")
		}, `cppgen: element "S" tag "dest": ` + parseErr},
		{"parallel count", func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			team := b.Diagram("team")
			team.Initial()
			team.Final()
			team.Flow("initial", "final")
			par := d.Activity("R", "team").Tag(profile.TagCount, "1 +")
			par.Node().SetStereotype(profile.OMPParallel)
			d.Chain("initial", "R", "final")
		}, `cppgen: parallel region "R" count: ` + parseErr},
		{"loop count", func(b *builder.ModelBuilder, d *builder.DiagramBuilder) {
			body := b.Diagram("body")
			body.Initial()
			body.Final()
			body.Flow("initial", "final")
			d.Loop("L", "1 +", "body")
			d.Chain("initial", "L", "final")
		}, `cppgen: loop "L" count: ` + parseErr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := builder.New("m")
			d := b.Diagram("main")
			d.Initial()
			d.Final()
			tc.build(b, d)
			m, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			_, err = New().Generate(m)
			if err == nil || err.Error() != tc.want {
				t.Errorf("Generate error = %v\nwant %s", err, tc.want)
			}
		})
	}
}
