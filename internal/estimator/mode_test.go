package estimator

import (
	"math"
	"strings"
	"testing"

	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/samples"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{
		{"", ModeSimulate},
		{"simulate", ModeSimulate},
		{"analytic", ModeAnalytic},
		{"auto", ModeAuto},
	} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("ParseMode(bogus) error = %v, want named rejection", err)
	}
}

// mode=analytic must return the exact simulated makespan for a
// deterministic model without running the simulation: the analytic stage
// span appears, the simulate span does not, and the Analytic flag is set.
func TestEstimateModeAnalytic(t *testing.T) {
	spans := obs.NewSpanRecorder()
	reg := obs.NewRegistry()
	est, err := New().Estimate(Request{
		Model:   samples.Sample(),
		Mode:    ModeAnalytic,
		Spans:   spans,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Analytic {
		t.Error("Analytic flag not set")
	}
	want := 8.5 + 5 + 0.1 + 5
	if math.Abs(est.Makespan-want) > 1e-12 {
		t.Errorf("makespan = %v, want %v", est.Makespan, want)
	}
	if est.Variance != 0 {
		t.Errorf("deterministic variance = %v, want 0", est.Variance)
	}
	got := stageNames(spans.Spans())
	if got["analytic"] != 1 {
		t.Errorf("analytic spans = %d, want 1", got["analytic"])
	}
	if got["simulate"] != 0 {
		t.Errorf("simulate spans = %d, want 0", got["simulate"])
	}
	if reg.Counter("estimator_analytic_solves_total").Value() != 1 {
		t.Error("estimator_analytic_solves_total not incremented")
	}
}

// mode=analytic is strict: a request outside the closed-form class is an
// error, not a silent simulation.
func TestEstimateModeAnalyticRejectsMultiProcess(t *testing.T) {
	params := machine.DefaultParams()
	params.Processes = 4
	_, err := New().Estimate(Request{
		Model:  samples.Sample(),
		Mode:   ModeAnalytic,
		Params: params,
	})
	if err == nil || !strings.Contains(err.Error(), "single-process") {
		t.Fatalf("error = %v, want single-process rejection", err)
	}
}

// mode=auto falls back to simulation when the model or system is outside
// the analytic class, and counts the fallback.
func TestEstimateModeAutoFallsBack(t *testing.T) {
	params := machine.DefaultParams()
	params.Processes = 2
	reg := obs.NewRegistry()
	est, err := New().Estimate(Request{
		Model:   samples.Sample(),
		Mode:    ModeAuto,
		Params:  params,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if est.Analytic {
		t.Error("multi-process auto request must fall back to simulation")
	}
	if est.Summary == nil {
		t.Error("fallback should produce a normal simulated estimate")
	}
	if reg.Counter("estimator_analytic_fallbacks_total").Value() != 1 {
		t.Error("estimator_analytic_fallbacks_total not incremented")
	}
}

// mode=auto solves analytically when it can.
func TestEstimateModeAutoSolves(t *testing.T) {
	est, err := New().Estimate(Request{Model: samples.Sample(), Mode: ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	if !est.Analytic {
		t.Error("eligible auto request should be solved analytically")
	}
}
