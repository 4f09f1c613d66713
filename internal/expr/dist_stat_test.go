package expr_test

import (
	"math"
	"testing"

	"prophet/internal/expr"
	"prophet/internal/sim"
)

// Statistical acceptance tests for the distribution samplers, at fixed
// seeds so they are deterministic. The draws come from sim.Stream — the
// very sampler both backends use — so these tests pin the agreement
// between drawDist and distMoments that the analytic solver depends on.

func mustDist(t *testing.T, src string) *expr.Dist {
	t.Helper()
	d, ok := expr.ParseDist(src)
	if !ok {
		t.Fatalf("ParseDist(%q) did not recognize a distribution literal", src)
	}
	return d
}

// sampleStats draws n values and returns the sample mean and variance.
func sampleStats(t *testing.T, d *expr.Dist, seed int64, n int) (mean, variance float64) {
	t.Helper()
	s := sim.NewStream(seed)
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v, err := d.Sample(expr.Builtins, s)
		if err != nil {
			t.Fatalf("Sample: %v", err)
		}
		sum += v
		sumsq += v * v
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return mean, variance
}

// Every family's sample moments must converge to the closed-form moments
// the analytic solver uses — including the zero-censoring of Normal.
func TestDistMomentsMatchSampling(t *testing.T) {
	const n = 200_000
	for _, src := range []string{
		"exp(2)",
		"normal(5, 1)",
		"normal(1, 2)",  // heavily censored: ~31% of raw draws are negative
		"normal(-1, 1)", // mostly censored to zero
		"uniform(1, 3)",
		"empirical(1, 2, 6)",
	} {
		t.Run(src, func(t *testing.T) {
			d := mustDist(t, src)
			wantMean, wantVar, err := d.Moments(expr.Builtins)
			if err != nil {
				t.Fatalf("Moments: %v", err)
			}
			gotMean, gotVar := sampleStats(t, d, 7, n)
			// Six standard errors of the mean, plus float slack.
			tol := 6*math.Sqrt(wantVar/n) + 1e-9
			if math.Abs(gotMean-wantMean) > tol {
				t.Errorf("mean: sampled %v, closed-form %v (tol %v)", gotMean, wantMean, tol)
			}
			// Variance converges more slowly; 5% relative is ample at 200k
			// draws for these light-tailed families.
			if math.Abs(gotVar-wantVar) > 0.05*wantVar+1e-9 {
				t.Errorf("variance: sampled %v, closed-form %v", gotVar, wantVar)
			}
		})
	}
}

// Chi-square goodness of fit for the uniform sampler: 10 equal bins over
// [0,1), critical value 27.88 at p=0.001 with 9 degrees of freedom.
func TestUniformChiSquare(t *testing.T) {
	d := mustDist(t, "uniform(0, 1)")
	s := sim.NewStream(11)
	const n, bins = 100_000, 10
	var counts [bins]int
	for i := 0; i < n; i++ {
		v, err := d.Sample(expr.Builtins, s)
		if err != nil {
			t.Fatal(err)
		}
		b := int(v * bins)
		if b < 0 || b >= bins {
			t.Fatalf("draw %v outside [0,1)", v)
		}
		counts[b]++
	}
	expected := float64(n) / bins
	var chi2 float64
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 27.88 {
		t.Errorf("chi-square %v exceeds the p=0.001 critical value; counts %v", chi2, counts)
	}
}

// Chi-square for the empirical chooser: each listed value must be picked
// uniformly (critical value 16.27 at p=0.001 with 3 degrees of freedom).
func TestEmpiricalChiSquare(t *testing.T) {
	d := mustDist(t, "empirical(10, 20, 30, 40)")
	s := sim.NewStream(13)
	const n = 100_000
	counts := map[float64]int{}
	for i := 0; i < n; i++ {
		v, err := d.Sample(expr.Builtins, s)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	if len(counts) != 4 {
		t.Fatalf("empirical drew %d distinct values, want 4: %v", len(counts), counts)
	}
	expected := float64(n) / 4
	var chi2 float64
	for _, c := range counts {
		diff := float64(c) - expected
		chi2 += diff * diff / expected
	}
	if chi2 > 16.27 {
		t.Errorf("chi-square %v exceeds the p=0.001 critical value; counts %v", chi2, counts)
	}
}

// ParseDist recognizes exactly the whole-source single-call form with
// the right arity; everything else stays an ordinary expression.
func TestParseDistRecognition(t *testing.T) {
	for _, tc := range []struct {
		src  string
		ok   bool
		kind expr.DistKind
	}{
		{"exp(2)", true, expr.DistExp},
		{"exp(c * 2)", true, expr.DistExp},
		{"normal(1, 2)", true, expr.DistNormal},
		{"uniform(0, 1)", true, expr.DistUniform},
		{"empirical(5)", true, expr.DistEmpirical},
		{"empirical(1, 2, 3, 4)", true, expr.DistEmpirical},
		{"1 + exp(2)", false, 0},
		{"exp(2) * 3", false, 0},
		{"normal(1)", false, 0},
		{"uniform(1, 2, 3)", false, 0},
		{"empirical()", false, 0},
		{"foo(1)", false, 0},
		{"(((", false, 0},
		{"42", false, 0},
	} {
		d, ok := expr.ParseDist(tc.src)
		if ok != tc.ok {
			t.Errorf("ParseDist(%q) ok = %v, want %v", tc.src, ok, tc.ok)
			continue
		}
		if ok && d.Kind != tc.kind {
			t.Errorf("ParseDist(%q) kind = %v, want %v", tc.src, d.Kind, tc.kind)
		}
	}
}
