package lower

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/checker"
	"prophet/internal/expr"
	"prophet/internal/interp"
	"prophet/internal/samples"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// stepCounted reports whether a node charges the per-process step budget
// when executed (actions, activities and loops do; control nodes do not).
func stepCounted(n uml.Node) bool {
	switch n.(type) {
	case *uml.ActionNode, *uml.ActivityNode, *uml.LoopNode:
		return true
	}
	return false
}

// hangable reports whether the model can defeat every termination bound
// both backends share, so differential fuzzing must skip it — there is no
// reference behavior to compare against. Three shapes qualify:
//   - an in-diagram flow cycle holding a fork (each spawned branch gets a
//     fresh MaxSteps budget) or holding no step-counted node (spins
//     without ever charging the budget);
//   - a cyclic diagram call graph (recursion through activity/loop/
//     parallel bodies composes with forks the same way);
//   - an <<omp_parallel>> whose team size is not a small constant (the
//     team spawns before any member charges a step).
func hangable(m *uml.Model) bool {
	if cyclicCallGraph(m) {
		return true
	}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if n.Stereotype() != "omp_parallel" {
				continue
			}
			tag, ok := n.Tag("count")
			if !ok {
				continue // team size comes from SystemParams, which the harness fixes
			}
			c, err := expr.CompileString(tag)
			if err != nil {
				continue // compile fails identically in both backends
			}
			v, err := c.Eval(expr.Builtins)
			if err != nil || v != v || v > 64 {
				return true
			}
		}
	}
	return inDiagramHang(m)
}

// cyclicCallGraph walks body references (activity, loop, parallel) between
// diagrams and reports any cycle.
func cyclicCallGraph(m *uml.Model) bool {
	refs := map[string][]string{}
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			switch x := n.(type) {
			case *uml.ActivityNode:
				refs[d.Name()] = append(refs[d.Name()], x.Body())
			case *uml.LoopNode:
				refs[d.Name()] = append(refs[d.Name()], x.Body())
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) bool
	visit = func(name string) bool {
		color[name] = gray
		for _, to := range refs[name] {
			switch color[to] {
			case white:
				if visit(to) {
					return true
				}
			case gray:
				return true
			}
		}
		color[name] = black
		return false
	}
	for name := range refs {
		if color[name] == white && visit(name) {
			return true
		}
	}
	return false
}

func inDiagramHang(m *uml.Model) bool {
	for _, d := range m.Diagrams() {
		// Iterative DFS three-coloring: a back edge closes a cycle; walk
		// the cycle from the stack to classify its members.
		const (
			white = 0
			gray  = 1
			black = 2
		)
		color := map[string]int{}
		var stack []string
		var visit func(id string) bool
		visit = func(id string) bool {
			color[id] = gray
			stack = append(stack, id)
			for _, e := range d.Outgoing(id) {
				to := e.To()
				if d.Node(to) == nil {
					continue
				}
				switch color[to] {
				case white:
					if visit(to) {
						return true
					}
				case gray:
					// Cycle: stack suffix from `to` to the top.
					cycleHasFork, cycleHasStep := false, false
					seen := false
					for _, id := range stack {
						if id == to {
							seen = true
						}
						if !seen {
							continue
						}
						n := d.Node(id)
						if n == nil {
							continue
						}
						if n.Kind() == uml.KindFork {
							cycleHasFork = true
						}
						if stepCounted(n) {
							cycleHasStep = true
						}
					}
					if cycleHasFork || !cycleHasStep {
						return true
					}
				}
			}
			stack = stack[:len(stack)-1]
			color[id] = black
			return false
		}
		for _, n := range d.Nodes() {
			if color[n.ID()] == white {
				if visit(n.ID()) {
					return true
				}
			}
		}
	}
	return false
}

// FuzzLoweredEquivalence feeds arbitrary XMI documents through both
// backends and requires identical observable behavior: same error text
// (modulo backend prefix) or same makespan, trace, globals and CPU
// utilization. Inputs that fail to decode, fail the checker, or contain
// flow cycles neither backend can terminate on are skipped.
func FuzzLoweredEquivalence(f *testing.F) {
	seed := func(m *uml.Model) {
		s, err := xmi.EncodeString(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s)
	}
	seed(samples.Sample())
	seed(samples.Kernel6())
	seed(samples.Jacobi())
	seed(samples.OmpRegion())
	seed(samples.Pipeline(4))

	chk := checker.New()
	f.Fuzz(func(t *testing.T, doc string) {
		m, err := xmi.DecodeString(doc)
		if err != nil {
			t.Skip()
		}
		if rep := chk.Check(m); rep.HasErrors() {
			t.Skip()
		}
		if hangable(m) {
			t.Skip()
		}
		pr, err := interp.Compile(m, nil)
		if err != nil {
			t.Skip()
		}
		// Wall-clock bailout behind the structural screens: a model that
		// is merely expensive (deep body nesting multiplies fresh step
		// budgets) gets interrupted, and an interrupted run has no
		// comparable reference behavior.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		cfg := interp.Config{MaxSteps: 20000, Seed: 5, Context: ctx}
		want, werr := pr.Run(cfg)
		got, gerr := Lower(pr).Run(cfg)
		var ie *sim.InterruptError
		if errors.As(werr, &ie) || errors.As(gerr, &ie) ||
			errors.Is(werr, context.DeadlineExceeded) || errors.Is(gerr, context.DeadlineExceeded) {
			t.Skip()
		}
		wn := strings.ReplaceAll(errString(werr), "interp:", "X:")
		gn := strings.ReplaceAll(errString(gerr), "lower:", "X:")
		if wn != gn {
			t.Fatalf("error mismatch:\n  interp:  %v\n  lowered: %v", werr, gerr)
		}
		if werr != nil {
			return
		}
		if want.Makespan != got.Makespan {
			t.Fatalf("makespan: interp %v, lowered %v", want.Makespan, got.Makespan)
		}
		var wt, gt strings.Builder
		if err := trace.Write(&wt, want.Trace); err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(&gt, got.Trace); err != nil {
			t.Fatal(err)
		}
		if wt.String() != gt.String() {
			t.Fatalf("trace mismatch:\n--- interp ---\n%s\n--- lowered ---\n%s", wt.String(), gt.String())
		}
		for k, w := range want.Globals {
			if g, ok := got.Globals[k]; !ok || (w != g && !(w != w && g != g)) {
				t.Fatalf("global %q: interp %v, lowered %v (present %v)", k, w, g, ok)
			}
		}
		if len(want.Globals) != len(got.Globals) {
			t.Fatalf("globals arity: interp %v, lowered %v", want.Globals, got.Globals)
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestHangableScreen pins the pre-screen itself: legal cyclic flows pass,
// fork cycles and step-free cycles are rejected.
func TestHangableScreen(t *testing.T) {
	legal := func() *uml.Model {
		b := builder.New("legal")
		b.Global("n", "double")
		d := b.Diagram("main")
		d.Initial()
		d.Merge("top")
		d.Action("Tick").Cost("1").Code("n = n + 1")
		d.Decision("check")
		d.Final()
		d.Flow("initial", "top").
			Flow("top", "Tick").
			Flow("Tick", "check").
			FlowIf("check", "top", "n < 5").
			FlowIf("check", "final", "else")
		return builder.MustBuild(b)
	}
	if hangable(legal()) {
		t.Error("action-bearing cycle wrongly screened out")
	}
	if hangable(samples.Sample()) {
		t.Error("sample model has no cycles, must not screen out")
	}

	stepFree := func() *uml.Model {
		b := builder.New("stepfree")
		d := b.Diagram("main")
		d.Initial()
		d.Merge("m1")
		d.Decision("d1")
		d.Final()
		d.Flow("initial", "m1").
			Flow("m1", "d1").
			FlowIf("d1", "m1", "1 == 1").
			FlowIf("d1", "final", "else")
		return builder.MustBuild(b)
	}
	if !hangable(stepFree()) {
		t.Error("step-free cycle not screened out")
	}
}
