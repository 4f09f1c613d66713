package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/samples"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// A metrics registry no longer forces the event engine: /v1/estimate on
// a single-process FCFS model simulates in direct mode.
func TestEstimateSingleProcessRunsDirect(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := postJSON(t, ts.URL+"/v1/estimate?trace=1", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: sampleXMI(t)},
	})
	if code != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", code, body)
	}
	var er EstimateResponse
	decodeInto(t, body, &er)
	var sims []*obs.SpanNode
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if n.Name == "sim" {
			sims = append(sims, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(er.Trace.Root)
	if len(sims) != 1 || sims[0].Attrs["mode"] != "direct" {
		t.Fatalf("sim spans = %v, want one with mode=direct", sims)
	}
}

// mutateCost changes the first action cost of m in place, so its content
// hash no longer matches the id it was stored under.
func mutateCost(t *testing.T, m *uml.Model) {
	t.Helper()
	for _, d := range m.Diagrams() {
		for _, n := range d.Nodes() {
			if a, ok := n.(*uml.ActionNode); ok && a.CostFunc() != "" {
				a.SetCostFunc(a.CostFunc() + "+0")
				return
			}
		}
	}
	t.Fatal("model has no action cost to mutate")
}

// Every evaluation route on a stored id evaluates the stored record. The
// stored models are mutated in place after their record was prepared: a
// route that prepared anything but the stored record would count a miss.
func TestStoredModelIDIsCompileKey(t *testing.T) {
	est := estimator.New()
	srv := New(Config{Estimator: est})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for _, m := range []*uml.Model{samples.Sample(), samples.Kernel6()} {
		doc, err := xmi.EncodeString(m)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/models", "application/xml", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register: status %d: %s", resp.StatusCode, raw)
		}
		var mr ModelResponse
		decodeInto(t, raw, &mr)
		ids = append(ids, mr.ID)
	}
	kernel6 := map[string]float64{"N": 10, "M": 2, "c": 1e-6}
	for i, g := range []map[string]float64{nil, kernel6} {
		code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelID: ids[i]}, Globals: g,
		})
		if code != http.StatusOK {
			t.Fatalf("prime %d: status %d: %s", i, code, body)
		}
		c, _ := srv.store.get(ids[i])
		mutateCost(t, c.Model())
	}
	_, misses0 := est.CacheStats()

	ref := ModelRef{ModelID: ids[0]}
	for _, r := range []struct {
		path string
		body any
	}{
		{"/v1/estimate", EstimateRequest{ModelRef: ref, Seed: 2}},
		{"/v1/sweep", SweepRequest{EstimateRequest: EstimateRequest{ModelRef: ref}, Processes: []int{1, 2}}},
		{"/v1/montecarlo", MonteCarloRequest{ModelRef: ref, Runs: 2}},
		{"/v1/compare", CompareRequest{ModelA: ref, ModelB: ModelRef{ModelID: ids[1]},
			Processes: []int{1}, Globals: kernel6}},
	} {
		code, _, body := postJSON(t, ts.URL+r.path, r.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", r.path, code, body)
		}
		if _, misses := est.CacheStats(); misses != misses0 {
			t.Errorf("%s recompiled a stored model (misses %d → %d) instead of using its record",
				r.path, misses0, misses)
			misses0 = misses
		}
	}
}
