package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"prophet/internal/builder"
	"prophet/internal/estimator"
	"prophet/internal/machine"
	"prophet/internal/samples"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

func sampleXMI(t *testing.T) string {
	t.Helper()
	s, err := xmi.EncodeString(samples.Sample())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// slowModelXMI encodes a model that runs `iters` tiny hold events —
// slow enough to outlive a short deadline.
func slowModelXMI(t *testing.T, iters int) string {
	t.Helper()
	b := builder.New("slow")
	b.Function("F", nil, "0.001")
	d := b.Diagram("main") // first diagram added becomes the main one
	d.Initial()
	d.Loop("L", strconv.Itoa(iters), "body")
	d.Final()
	d.Chain("initial", "L", "final")
	body := b.Diagram("body")
	body.Initial()
	body.Action("W").Cost("F()")
	body.Final()
	body.Chain("initial", "W", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmi.EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func decodeInto(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("bad response %q: %v", data, err)
	}
}

func TestEstimateInlineXMI(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: sampleXMI(t)},
		Params:   &Params{Nodes: 1, ProcessorsPerNode: 2, Processes: 4},
		Summary:  true,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var er EstimateResponse
	decodeInto(t, body, &er)
	if !strings.HasPrefix(er.ModelID, xmi.HashPrefix) {
		t.Errorf("model_id %q is not a content address", er.ModelID)
	}
	// The service must agree exactly with a direct estimator run.
	want, err := estimator.New().Estimate(estimator.Request{
		Model:  samples.Sample(),
		Params: machine.SystemParams{Nodes: 1, ProcessorsPerNode: 2, Processes: 4, Threads: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if er.Makespan != want.Makespan {
		t.Errorf("makespan over HTTP %g, direct %g", er.Makespan, want.Makespan)
	}
	if er.Summary == nil {
		t.Error("summary requested but absent")
	}
}

// An inline model whose cost nests deeper than the expression bound gets
// a 422 naming the bound; checking it does not recurse through the
// nesting, however deep.
func TestInlineModelTooDeepExpression(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for name, cost := range map[string]string{
		"parentheses": strings.Repeat("(", 20000) + "1" + strings.Repeat(")", 20000),
		"sum":         "1" + strings.Repeat("+1", 20000),
	} {
		m := samples.Sample()
		for _, d := range m.Diagrams() {
			for _, n := range d.Nodes() {
				if a, ok := n.(*uml.ActionNode); ok && a.CostFunc() != "" {
					a.SetCostFunc(cost)
				}
			}
		}
		doc, err := xmi.EncodeString(m)
		if err != nil {
			t.Fatal(err)
		}
		code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{ModelRef: ModelRef{ModelXMI: doc}})
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(body), "expression nests deeper than 1000 levels") {
			t.Errorf("%s: status %d, want 422 naming the nesting bound: %.300s", name, code, body)
		}
		// The body quotes a window of the 40,001-byte source, not all of it.
		if len(body) >= 16<<10 {
			t.Errorf("%s: 422 body is %d bytes, want under 16 KiB", name, len(body))
		}
	}
}

func TestModelStoreFlow(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/models", "application/xml",
		strings.NewReader(sampleXMI(t)))
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
	if !strings.HasPrefix(mr.ID, xmi.HashPrefix) || mr.Name != "sample" {
		t.Fatalf("unexpected registration %+v", mr)
	}

	code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelID: mr.ID},
	})
	if code != http.StatusOK {
		t.Fatalf("estimate by id: status %d: %s", code, body)
	}
	var er EstimateResponse
	decodeInto(t, body, &er)
	if er.ModelID != mr.ID {
		t.Errorf("response echoes %q, want %q", er.ModelID, mr.ID)
	}
	if er.Makespan <= 0 || math.IsNaN(er.Makespan) {
		t.Errorf("makespan = %g", er.Makespan)
	}

	code, _, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelID: "sha256:deadbeef"},
	})
	if code != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404: %s", code, body)
	}
}

// mode=analytic over the wire: the response carries the analytic flag
// and the same makespan a simulate request computes for a deterministic
// model, and the two modes occupy distinct cache keys.
func TestEstimateModeAnalytic(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	xml := sampleXMI(t)
	code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
		Mode:     "analytic",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var ar EstimateResponse
	decodeInto(t, body, &ar)
	if !ar.Analytic {
		t.Error("analytic flag absent from response")
	}
	code, _, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var sr EstimateResponse
	decodeInto(t, body, &sr)
	if sr.Analytic {
		t.Error("simulate response wrongly flagged analytic")
	}
	if ar.Makespan != sr.Makespan {
		t.Errorf("analytic %g != simulated %g on a deterministic model", ar.Makespan, sr.Makespan)
	}
	// Out of the closed-form class (multi-process) under strict analytic
	// mode: the model/mode combination is the client's problem, 422.
	code, _, body = postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
		Mode:     "analytic",
		Params:   &Params{Processes: 4},
	})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-class analytic request: status %d, want 422: %s", code, body)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	xml := sampleXMI(t)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"model_xmi": `, 400},
		{"unknown field", `{"modelxmi": "x"}`, 400},
		{"no model", `{}`, 400},
		{"both refs", `{"model_id": "sha256:x", "model_xmi": "<xml/>"}`, 400},
		{"bad xmi", `{"model_xmi": "not xml"}`, 400},
		{"bad policy", `{"model_xmi": ` + strconv.Quote(xml) + `, "policy": "lifo"}`, 400},
		{"bad mode", `{"model_xmi": ` + strconv.Quote(xml) + `, "mode": "quantum"}`, 400},
		{"trailing garbage", `{"model_xmi": ` + strconv.Quote(xml) + `} {}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
				strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
			var er ErrorResponse
			decodeInto(t, body, &er)
			if er.Error == "" {
				t.Error("error response has no error message")
			}
		})
	}
}

// TestRefusedXMI: a document the decoder refuses (a mis-cased attribute,
// an unknown element) is a 400 on both ways in, and the error repeats at
// most 64 bytes of the input.
func TestRefusedXMI(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	long := strings.Repeat("x", 100)
	const model = `<model name="m"><diagram id="d1" name="main">`
	cases := []struct{ doc, want string }{
		{model + `<node id="n1" kind="Action" costFunc="` + long + `"/></diagram></model>`,
			`unknown attribute "costFunc" on <node>`},
		{model + `<tpyo` + long + `/></diagram></model>`,
			`unknown element <tpyo` + long[:60] + `> in <diagram>`},
	}
	for _, tc := range cases {
		for _, req := range []struct{ path, body string }{
			{"/v1/models", tc.doc},
			{"/v1/estimate", `{"model_xmi": ` + strconv.Quote(tc.doc) + `}`},
		} {
			resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var er ErrorResponse
			decodeInto(t, body, &er)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, tc.want) {
				t.Errorf("%s: status %d, error %q; want 400 with %q", req.path, resp.StatusCode, er.Error, tc.want)
			}
			if strings.Contains(er.Error, long[:65]) {
				t.Errorf("%s: error repeats more than 64 bytes of the input: %q", req.path, er.Error)
			}
		}
	}
}

func TestSweepValidation(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	xml := sampleXMI(t)
	// Neither processes nor global.
	code, _, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		EstimateRequest: EstimateRequest{ModelRef: ModelRef{ModelXMI: xml}},
	})
	if code != http.StatusBadRequest {
		t.Errorf("empty sweep: status %d, want 400: %s", code, body)
	}
	// A real process sweep works and returns one point per count.
	code, _, body = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		EstimateRequest: EstimateRequest{ModelRef: ModelRef{ModelXMI: xml}},
		Processes:       []int{1, 2, 4},
	})
	if code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", code, body)
	}
	var sr SweepResponse
	decodeInto(t, body, &sr)
	if len(sr.Points) != 3 {
		t.Errorf("%d points, want 3", len(sr.Points))
	}
}

func TestCompareEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	a, err := xmi.EncodeString(samples.Kernel6())
	if err != nil {
		t.Fatal(err)
	}
	b, err := xmi.EncodeString(samples.Kernel6Detailed())
	if err != nil {
		t.Fatal(err)
	}
	code, _, body := postJSON(t, ts.URL+"/v1/compare", CompareRequest{
		ModelA:    ModelRef{ModelXMI: a},
		ModelB:    ModelRef{ModelXMI: b},
		Processes: []int{1, 2},
		Globals:   map[string]float64{"N": 100, "M": 4, "c": 1e-9},
	})
	if code != http.StatusOK {
		t.Fatalf("compare: status %d: %s", code, body)
	}
	var cr CompareResponse
	decodeInto(t, body, &cr)
	if len(cr.Points) != 2 || cr.NameA == "" || cr.NameB == "" {
		t.Errorf("unexpected compare response %+v", cr)
	}
}

// A saturating burst must be shed with 503 + Retry-After, not queued
// unboundedly: with one slot, no queue, and the slot held open, the
// next request is rejected immediately.
func TestSaturationSheds503(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: -1, QueueWait: 50 * time.Millisecond})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.hookAdmitted = func() {
		select {
		case entered <- struct{}{}:
			<-release // first admitted request parks here, slot held
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	xml := sampleXMI(t)

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml},
		})
		done <- code
	}()
	<-entered // the slot is now held

	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503: %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(release)
	if got := <-done; got != http.StatusOK {
		t.Errorf("held request finished with %d, want 200", got)
	}
}

// With a queue, a waiter that cannot get a slot within QueueWait is shed
// — and the queue bound itself is strict.
func TestQueueWaitTimeout(t *testing.T) {
	srv := New(Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.hookAdmitted = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	xml := sampleXMI(t)

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml},
		})
		done <- code
	}()
	<-entered

	start := time.Now()
	code, hdr, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queued past QueueWait: status %d: %s", code, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("queue timeout took %v", d)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	close(release)
	<-done
}

// A deadline that expires mid-simulation surfaces as 504, promptly —
// the simulation is interrupted at event granularity, it does not run
// to completion first.
func TestDeadlineMidSimulation504(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	start := time.Now()
	code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef:  ModelRef{ModelXMI: slowModelXMI(t, 20_000_000)},
		TimeoutMS: 50,
		MaxSteps:  200_000_000,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadline surfaced after %v; the run was not interrupted", d)
	}
	var er ErrorResponse
	decodeInto(t, body, &er)
	if !strings.Contains(er.Error, "deadline") {
		t.Errorf("504 body does not name the deadline: %q", er.Error)
	}
}

// A model that fails checking or flow-errors at runtime is the client's
// problem: 422, not 500.
func TestUnprocessableModel(t *testing.T) {
	b := builder.New("flowerr")
	b.Global("GV", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("dec")
	d.Action("A")
	d.Final()
	d.Flow("initial", "dec").
		FlowIf("dec", "A", "GV > 0"). // GV stays 0: no viable branch
		Flow("A", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	xml, err := xmi.EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: xml},
	})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("flow error: status %d, want 422: %s", code, body)
	}
}

func TestDrainShedsAndFlipsHealth(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server reports %d", resp.StatusCode)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status %d, want 503: %s", resp.StatusCode, body)
	}

	code, hdr, body2 := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
		ModelRef: ModelRef{ModelXMI: sampleXMI(t)},
	})
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining estimate: status %d, want 503: %s", code, body2)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("drain shed without Retry-After")
	}
}

// SIGTERM handling in prophetd is http.Server.Shutdown after Drain: new
// work is shed but admitted evaluations run to completion.
func TestGracefulShutdownCompletesInflight(t *testing.T) {
	srv := New(Config{})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.hookAdmitted = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	xml := sampleXMI(t)

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml},
		})
		done <- code
	}()
	<-entered

	shutdown := make(chan error, 1)
	go func() {
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- ts.Config.Shutdown(ctx)
	}()

	// Let the drain begin, then release the in-flight evaluation.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if got := <-done; got != http.StatusOK {
		t.Errorf("in-flight request finished with %d during shutdown, want 200", got)
	}
	if err := <-shutdown; err != nil {
		t.Errorf("shutdown did not complete cleanly: %v", err)
	}
}

func TestMetricsExposed(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	xml := sampleXMI(t)
	for i := 0; i < 2; i++ { // miss then hit
		code, _, body := postJSON(t, ts.URL+"/v1/estimate", EstimateRequest{
			ModelRef: ModelRef{ModelXMI: xml},
		})
		if code != http.StatusOK {
			t.Fatalf("estimate %d: status %d: %s", i, code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"estimator_cache_hits_total 1",
		"estimator_cache_misses_total 1",
		"server_queue_depth",
		"server_inflight",
		"model_store_models 1",
		`http_requests_total{route="estimate",code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// The zero Config is fully defaulted — a smoke check that New(Config{})
// is safe to serve.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxInFlight <= 0 || cfg.MaxQueue <= 0 || cfg.QueueWait <= 0 ||
		cfg.DefaultTimeout <= 0 || cfg.MaxTimeout <= 0 || cfg.MaxBodyBytes <= 0 ||
		cfg.MaxModels <= 0 || cfg.Registry == nil || cfg.Estimator == nil {
		t.Errorf("withDefaults left zero fields: %+v", cfg)
	}
	if cfg2 := (Config{MaxQueue: -1}).withDefaults(); cfg2.MaxQueue != 0 {
		t.Errorf("MaxQueue -1 should mean no queue, got %d", cfg2.MaxQueue)
	}
}
