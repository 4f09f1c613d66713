package estimator_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/samples"
	"prophet/internal/server"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// These tests drive prophetd's HTTP layer over the estimator's model
// record; they live here because only this package's tests can hook the
// model check.

// post sends a JSON (or, for a string body, raw) request and returns the
// status and body.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	var r io.Reader
	if s, ok := body.(string); ok {
		r = strings.NewReader(s)
	} else {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		r = bytes.NewReader(buf)
	}
	resp, err := http.Post(url, "application/json", r)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out
}

// upload registers m and returns its id.
func upload(t *testing.T, base string, m *uml.Model) string {
	t.Helper()
	doc, err := xmi.EncodeString(m)
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, base+"/v1/models", doc)
	var mr server.ModelResponse
	if code != http.StatusOK || json.Unmarshal(body, &mr) != nil {
		t.Fatalf("register: status %d: %s", code, body)
	}
	return mr.ID
}

// countSpans counts the spans of a tree named name whose cache attribute
// is cache ("" matches any).
func countSpans(n *obs.SpanNode, name, cache string) int {
	if n == nil {
		return 0
	}
	c := 0
	if n.Name == name && (cache == "" || n.Attrs["cache"] == cache) {
		c++
	}
	for _, ch := range n.Children {
		c += countSpans(ch, name, cache)
	}
	return c
}

// preparing counts the goroutines inside a record's preparation.
func preparing() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "estimator.(*Estimator).prepare(")
}

// Concurrent first requests on one stored model prepare its record once:
// one check, one compile, one lowering. The first check is held until
// all callers are preparing, so without the record's once-only
// preparation each caller would run its own check.
func TestConcurrentFirstRequestsPrepareOnce(t *testing.T) {
	const n = 8
	var checks atomic.Int64
	release := make(chan struct{})
	defer estimator.SetCheckHook(func() {
		if checks.Add(1) == 1 {
			<-release
		}
	})()
	est := estimator.New()
	ts := httptest.NewServer(server.New(server.Config{MaxInFlight: n, Estimator: est}).Handler())
	defer ts.Close()
	id := upload(t, ts.URL, samples.Sample())

	trees := make([]*obs.TraceTree, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := post(t, ts.URL+"/v1/estimate?trace=1", server.EstimateRequest{
				ModelRef: server.ModelRef{ModelID: id}, Seed: int64(i + 1),
			})
			var er server.EstimateResponse
			if code != http.StatusOK || json.Unmarshal(body, &er) != nil {
				t.Errorf("estimate %d: status %d: %s", i, code, body)
				return
			}
			trees[i] = er.Trace
		}()
	}
	// Callers that run their own check never wait, so release the held
	// check after a deadline rather than hang.
	for deadline := time.Now().Add(5 * time.Second); preparing() < n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := checks.Load(); got != 1 {
		t.Errorf("%d checks, want 1", got)
	}
	if hits, misses := est.CacheStats(); hits != n-1 || misses != 1 {
		t.Errorf("estimator_cache hits=%d misses=%d, want %d and 1", hits, misses, n-1)
	}
	var compiles, lowerings int
	for _, tr := range trees {
		if tr != nil {
			compiles += countSpans(tr.Root, "compile", "miss")
			lowerings += countSpans(tr.Root, "lower", "miss")
		}
	}
	if compiles != 1 || lowerings != 1 {
		t.Errorf("%d compiles and %d lowerings across %d requests, want 1 and 1", compiles, lowerings, n)
	}
}

// A stored model that fails checking is checked once: every estimate on
// it gets the same 422 body.
func TestRejectedModelChecksOnce(t *testing.T) {
	var checks atomic.Int64
	defer estimator.SetCheckHook(func() { checks.Add(1) })()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	m := samples.Sample()
	for _, d := range m.Diagrams() {
		for _, nd := range d.Nodes() {
			if a, ok := nd.(*uml.ActionNode); ok && a.CostFunc() != "" {
				a.SetCostFunc("1 +")
			}
		}
	}
	id := upload(t, ts.URL, m)

	var first []byte
	for i := 0; i < 3; i++ {
		code, body := post(t, ts.URL+"/v1/estimate", server.EstimateRequest{
			ModelRef: server.ModelRef{ModelID: id}, Seed: int64(i + 1),
		})
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("estimate %d: status %d, want 422: %s", i, code, body)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("estimate %d body differs:\n%s\nvs\n%s", i, body, first)
		}
	}
	if got := checks.Load(); got != 1 {
		t.Errorf("rejected model checked %d times, want once", got)
	}
	if !strings.Contains(string(first), "failed checking") {
		t.Errorf("422 body does not name the check failure: %s", first)
	}
}
