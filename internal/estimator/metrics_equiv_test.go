package estimator_test

import (
	"context"
	"math"
	"testing"

	"prophet/internal/conformance"
	"prophet/internal/estimator"
	"prophet/internal/machine"
	"prophet/internal/obs"
	"prophet/internal/samples"
)

// simMetrics returns the sim_events_total and facility_utilization
// children of a registry, keyed "name{label}", as float64 bits.
func simMetrics(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "sim_events_total" || m.Name == "facility_utilization" {
			out[m.Name+"{"+m.Labels[0].Value+"}"] = math.Float64bits(m.Value)
		}
	}
	return out
}

// A metrics-only request installs no observer, so a single-process FCFS
// model runs in direct mode; the sim_events_total and
// facility_utilization it publishes must be bit-identical to the same
// request with telemetry on (engine plus sampler), and to what that
// request's sampler recorded. Sampling must not change the run either.
func TestMetricsOnlyMatchesTelemetry(t *testing.T) {
	type tc struct {
		name   string
		req    estimator.Request
		direct bool
	}
	cases := []tc{
		{"samples/sample", estimator.Request{Model: samples.Sample()}, true},
		{"samples/kernel6", estimator.Request{Model: samples.Kernel6(),
			Globals: map[string]float64{"N": 100, "M": 10, "c": 1e-9}}, true},
		{"samples/kernel6-detailed", estimator.Request{Model: samples.Kernel6Detailed(),
			Globals: map[string]float64{"N": 10, "M": 4, "c": 1e-3}}, true},
		{"samples/synthetic", estimator.Request{Model: samples.Synthetic(2, 3),
			Globals: map[string]float64{"P": 1}}, true},
		{"samples/jacobi-1proc", estimator.Request{Model: samples.Jacobi(),
			Params:  machine.SystemParams{Nodes: 2, ProcessorsPerNode: 2, Processes: 1, Threads: 1},
			Globals: map[string]float64{"n": 16, "iters": 2, "flop": 1e-8}}, false},
		{"samples/pipeline-ps", estimator.Request{Model: samples.Pipeline(3),
			Params:  machine.SystemParams{Nodes: 1, ProcessorsPerNode: 1, Processes: 3, Threads: 1},
			Globals: map[string]float64{"work": 0.5}, Policy: machine.PolicyPS}, false},
	}
	direct := map[string]bool{
		"sample": true, "kernel6": true, "kernel6-detailed": true, "synthetic-3x4": true,
		"query-mix": true, "stochastic-service": true, "stochastic-batch": true,
	}
	for _, e := range conformance.Builtins() {
		cases = append(cases, tc{"builtin/" + e.Name, estimator.Request{
			Model: e.Model, Params: e.Config.Params, Globals: e.Config.Globals,
			Seed: e.Config.Seed, MaxSteps: e.Config.MaxSteps,
		}, direct[e.Name]})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := estimator.New()
			tr, root := obs.NewTrace("test")
			metricsOnly := c.req
			metricsOnly.Metrics = obs.NewRegistry()
			metricsOnly.Context = obs.ContextWithSpan(context.Background(), root)
			plain, err := e.Estimate(metricsOnly)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			mode := ""
			var find func(n *obs.SpanNode)
			find = func(n *obs.SpanNode) {
				if n.Name == "sim" {
					mode = n.Attrs["mode"]
				}
				for _, ch := range n.Children {
					find(ch)
				}
			}
			find(tr.Tree().Root)
			if want := map[bool]string{true: "direct", false: "engine"}[c.direct]; mode != want {
				t.Errorf("metrics-only run used mode %q, want %q", mode, want)
			}

			telemetry := c.req
			telemetry.Metrics = obs.NewRegistry()
			telemetry.Telemetry = true
			est, err := e.Estimate(telemetry)
			if err != nil {
				t.Fatal(err)
			}
			if est.Makespan != plain.Makespan {
				t.Errorf("sampling changed the makespan: %v, without %v", est.Makespan, plain.Makespan)
			}

			got, want := simMetrics(metricsOnly.Metrics), simMetrics(telemetry.Metrics)
			if len(want) == 0 {
				t.Fatal("telemetry run published no sim metrics")
			}
			// The engine's counters are the sampler's numbers.
			samples := est.Telemetry.Samples
			last := samples[len(samples)-1]
			sampled := map[string]uint64{}
			for k, n := range est.Telemetry.EventCounts {
				sampled["sim_events_total{"+k+"}"] = math.Float64bits(float64(n))
			}
			for f, u := range last.FacilityUtilization {
				sampled["facility_utilization{"+f+"}"] = math.Float64bits(u)
			}
			for _, cmp := range []struct {
				name string
				m    map[string]uint64
			}{{"metrics-only", got}, {"sampler", sampled}} {
				if len(cmp.m) != len(want) {
					t.Errorf("%s has %d sim metrics, telemetry run %d: %v vs %v", cmp.name, len(cmp.m), len(want), cmp.m, want)
				}
				for k, v := range want {
					if cmp.m[k] != v {
						t.Errorf("%s %s = %v, telemetry run %v", cmp.name, k,
							math.Float64frombits(cmp.m[k]), math.Float64frombits(v))
					}
				}
			}
			if n := metricsOnly.Metrics.Counter("sim_samples_total").Value(); n != 0 {
				t.Errorf("metrics-only sim_samples_total = %d, want 0", n)
			}
			if n := telemetry.Metrics.Counter("sim_samples_total").Value(); n != int64(len(samples)) {
				t.Errorf("telemetry sim_samples_total = %d, want %d", n, len(samples))
			}
		})
	}
}
