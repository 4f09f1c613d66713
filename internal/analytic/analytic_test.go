package analytic_test

import (
	"math"
	"strings"
	"testing"

	"prophet/internal/analytic"
	"prophet/internal/builder"
	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/machine"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

// near reports |a-b| within an absolute-plus-relative tolerance tight
// enough to be "equal up to float round-off" for these closed forms.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// Deterministic models are the degenerate case of the solver: the mean
// must equal the simulated makespan exactly (same arithmetic, different
// order of traversal bookkeeping only) and the variance must be zero.
func TestSolveMatchesInterpDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *uml.Model
	}{
		{"sample", samples.Sample()},
		{"kernel6", samples.Kernel6()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := analytic.Solve(tc.m, analytic.Config{})
			if err != nil {
				t.Fatalf("Solve: %v", err)
			}
			if res.Stochastic {
				t.Errorf("deterministic model reported Stochastic")
			}
			if res.Variance != 0 {
				t.Errorf("deterministic model variance = %v, want 0", res.Variance)
			}
			pr, err := interp.Compile(tc.m, nil)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			sim, err := pr.Run(interp.Config{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !near(res.Mean, sim.Makespan) {
				t.Errorf("analytic mean %v != simulated makespan %v", res.Mean, sim.Makespan)
			}
			for name, v := range sim.Globals {
				if av, ok := res.Globals[name]; !ok || !near(av, v) {
					t.Errorf("global %q: analytic %v, simulated %v", name, av, v)
				}
			}
		})
	}
}

// A loop over a uniform draw: per-iteration mean (lo+hi)/2 and variance
// (hi-lo)²/12, and independent draws add across iterations.
func TestUniformLoopMoments(t *testing.T) {
	b := builder.New("uloop")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("L", "4", "body").Var("i")
	d.Final()
	d.Chain("initial", "L", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Work").Cost("uniform(1, 3)")
	body.Final()
	body.Chain("initial", "Work", "final")
	m := builder.MustBuild(b)

	res, err := analytic.Solve(m, analytic.Config{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Stochastic {
		t.Error("model with distribution cost not reported Stochastic")
	}
	if want := 4 * 2.0; !near(res.Mean, want) {
		t.Errorf("mean = %v, want %v", res.Mean, want)
	}
	if want := 4.0 / 3.0; !near(res.Variance, want) {
		t.Errorf("variance = %v, want %v", res.Variance, want)
	}
}

// A weighted decision is a closed-form mixture: mean Σ pᵢmᵢ and
// variance E[X²] − E[X]² over the branch moments.
func TestWeightedDecisionMixture(t *testing.T) {
	b := builder.New("wmix")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("D")
	d.Action("A").Cost("1")
	d.Action("B").Cost("3")
	d.Merge("M")
	d.Final()
	d.Flow("initial", "D")
	d.FlowWeighted("D", "A", 0.25)
	d.FlowWeighted("D", "B", 0.75)
	d.Flow("A", "M")
	d.Flow("B", "M")
	d.Flow("M", "final")
	m := builder.MustBuild(b)

	res, err := analytic.Solve(m, analytic.Config{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Stochastic {
		t.Error("weighted decision not reported Stochastic")
	}
	// mean = 0.25·1 + 0.75·3, E[X²] = 0.25·1 + 0.75·9, var = 7 − 2.5².
	if want := 2.5; !near(res.Mean, want) {
		t.Errorf("mean = %v, want %v", res.Mean, want)
	}
	if want := 0.75; !near(res.Variance, want) {
		t.Errorf("variance = %v, want %v", res.Variance, want)
	}
}

// TestWeightedEarlyExitMatchesLowered solves a weighted decision whose
// second arm can leave through the final node before the arms meet at M.
// D closes at the final node, so C counts only on the paths that reach
// M, and the mean must match the lowered backend's Monte Carlo mean.
func TestWeightedEarlyExitMatchesLowered(t *testing.T) {
	b := builder.New("weighted-early-exit")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("D")
	d.Decision("D2")
	d.Action("A").Cost("1")
	d.Action("B").Cost("2")
	d.Merge("M")
	d.Action("C").Cost("4")
	d.Final()
	d.Flow("initial", "D").
		FlowWeighted("D", "A", 0.5).FlowWeighted("D", "B", 0.5).
		Chain("A", "M").Chain("B", "D2").
		FlowWeighted("D2", "final", 0.5).FlowWeighted("D2", "M", 0.5).
		Chain("M", "C", "final")
	m := builder.MustBuild(b)

	res, err := analytic.Solve(m, analytic.Config{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Paths A·C (p=1/2, 5), B (p=1/4, 2) and B·C (p=1/4, 6).
	if want := 4.5; !near(res.Mean, want) {
		t.Errorf("mean = %v, want %v", res.Mean, want)
	}
	if want := 2.25; !near(res.Variance, want) {
		t.Errorf("variance = %v, want %v", res.Variance, want)
	}

	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog := lower.Lower(pr)
	const runs = 2000
	var sum float64
	for seed := int64(1); seed <= runs; seed++ {
		r, err := prog.Run(interp.Config{Seed: seed, NoTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Makespan
	}
	// Six standard errors: 0.2 here, a tenth of the error of closing D at
	// M, which charges C after the decision on every path (mean 6.5).
	if mc, tol := sum/runs, 6*math.Sqrt(res.Variance/runs); math.Abs(mc-res.Mean) > tol {
		t.Errorf("lowered Monte Carlo mean %v, analytic %v (tol %v)", mc, res.Mean, tol)
	}
}

// Assignments inside a weighted branch would make downstream state
// random, which the mixture rule cannot represent; the solver must
// reject them rather than silently pick one branch's value.
func TestAssignmentInWeightedBranchRejected(t *testing.T) {
	b := builder.New("wassign")
	b.Global("x", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("D")
	d.Action("A").Cost("1").Code("x = 1")
	d.Action("B").Cost("3")
	d.Merge("M")
	d.Final()
	d.Flow("initial", "D")
	d.FlowWeighted("D", "A", 0.5)
	d.FlowWeighted("D", "B", 0.5)
	d.Flow("A", "M")
	d.Flow("B", "M")
	d.Flow("M", "final")
	m := builder.MustBuild(b)

	_, err := analytic.Solve(m, analytic.Config{})
	if err == nil || !strings.Contains(err.Error(), "inside a weighted branch") {
		t.Fatalf("Solve error = %v, want weighted-branch assignment rejection", err)
	}
}

// A distribution-valued loop count is a random sum — outside the
// closed-form class — and must be rejected with a pointed message.
func TestStochasticLoopCountRejected(t *testing.T) {
	b := builder.New("dcount")
	d := b.Diagram("main")
	d.Initial()
	d.Loop("L", "empirical(2, 3)", "body").Var("i")
	d.Final()
	d.Chain("initial", "L", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("Work").Cost("0.5")
	body.Final()
	body.Chain("initial", "Work", "final")
	m := builder.MustBuild(b)

	_, err := analytic.Solve(m, analytic.Config{})
	if err == nil || !strings.Contains(err.Error(), "not closed-form") {
		t.Fatalf("Solve error = %v, want stochastic-count rejection", err)
	}
}

// Eligible is the mode=auto pre-filter: single-process single-processor
// systems with plain flow constructs only.
func TestEligible(t *testing.T) {
	m := samples.Sample()
	if !analytic.Eligible(m, machine.SystemParams{}) {
		t.Error("Sample with default params should be eligible")
	}
	multi := machine.DefaultParams()
	multi.Processes = 4
	if analytic.Eligible(m, multi) {
		t.Error("multi-process params should not be eligible")
	}
	if !analytic.Eligible(m, machine.DefaultParams()) {
		t.Error("explicit default params should be eligible")
	}
	if analytic.Eligible(samples.OmpRegion(), machine.SystemParams{}) {
		t.Error("omp_parallel model should not be eligible")
	}
}
