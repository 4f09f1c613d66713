package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/server"
	"prophet/internal/xmi"
)

// serveClients is the number of closed-loop clients: prophetd's callers
// (modeling tools, sweeps) each wait for their reply before sending the
// next request.
const serveClients = 2

// serveW serves POST /v1/estimate from an in-process prophetd server
// (result cache on, as cmd/prophetd runs by default) on a loopback
// listener. Most requests repeat an earlier one and hit the result
// cache; the rest are new seeds/globals, which miss the result cache but
// hit the compile and lowered caches.
type serveW struct {
	refs   *refs
	models []servedModel
	docs   []string // XMI of each model, as uploaded
	ids    []string // content addresses the uploads must return
	sched  []entry
	bodies map[int][]byte // request JSON per new schedule entry

	est    *estimator.Estimator
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	client *http.Client
	base   string
}

func newServe(r *refs, seed int64) (*serveW, error) {
	w := &serveW{refs: r, models: serveModels(), bodies: map[int][]byte{}}
	for _, sm := range w.models {
		doc, err := xmi.EncodeString(sm.model)
		if err != nil {
			return nil, err
		}
		id, err := xmi.Hash(sm.model)
		if err != nil {
			return nil, err
		}
		w.docs = append(w.docs, doc)
		w.ids = append(w.ids, id)
	}
	w.sched = serveSchedule(seed, len(w.models))
	for i, e := range w.sched {
		if e.first != i {
			continue
		}
		s, g := w.models[e.model].variant(e.variant)
		b, err := w.body(e.model, s, g, e.auto)
		if err != nil {
			return nil, err
		}
		w.bodies[i] = b
	}
	return w, nil
}

func (w *serveW) body(model int, seed int64, globals map[string]float64, auto bool) ([]byte, error) {
	req := server.EstimateRequest{Globals: globals, Seed: seed}
	req.ModelID = w.ids[model]
	if auto {
		req.Mode = "auto"
	}
	return json.Marshal(&req)
}

// setup starts the server, uploads every model and warms each with one
// held-out request (the first compile and lower).
func (w *serveW) setup() error {
	w.est = estimator.New()
	srv := server.New(server.Config{
		ResultCache: 1024, // cmd/prophetd's -result-cache default
		Estimator:   w.est,
		// prophetd logs one JSON line per request; format it, drop it.
		Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	w.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed once teardown shuts it down
	}(w.hs, w.served)
	w.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	for k, doc := range w.docs {
		var mr server.ModelResponse
		if err := w.post("/v1/models", []byte(doc), &mr); err != nil {
			return err
		}
		if mr.ID != w.ids[k] {
			return fmt.Errorf("upload of model %d returned id %s, want %s", k, mr.ID, w.ids[k])
		}
	}
	for k, sm := range w.models {
		_, g := sm.variant(0)
		b, err := w.body(k, serveHeldOutSeed, g, false)
		if err != nil {
			return err
		}
		if err := w.post("/v1/estimate", b, nil); err != nil {
			return err
		}
	}
	return nil
}

// post sends one setup request and decodes a 200 answer into out.
func (w *serveW) post(path string, body []byte, out any) error {
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

func (w *serveW) teardown() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	// Shutdown returns once every connection has closed, so nothing the
	// server allocated stays reachable from a connection goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		_ = w.hs.Close() // the deadline passed: drop the connections
	}
	<-w.served
	w.hs, w.client, w.est = nil, nil, nil
}

// served request outcome, as one client saw it.
type reqRec struct {
	entry   int
	lat     float64 // ms, client-observed
	outcome string  // X-Result-Cache: hit, miss or inflight
	err     error
	fetch   float64       // ms spent fetching the span tree (traced requests)
	hash    float64       // ms of xmi.Hash on the model (traced misses)
	tree    *obs.SpanNode // the server's span tree (traced requests)
}

func (w *serveW) measure(d time.Duration, traced bool, cal *calibrator) (*measurement, error) {
	var (
		next atomic.Int64
		// pause holds the clients back while client 0 samples the
		// calibration kernel: a sample starts once the other client's
		// request has completed, so no request is in flight during it.
		pause sync.RWMutex
		mu    sync.Mutex
		recs  []reqRec
		first = map[int][]byte{} // first body seen per request
		wg    sync.WaitGroup
		last  time.Time
	)
	h0, m0 := w.est.CacheStats()
	c0, spent0, calCPU0 := cpuSeconds(), cal.spent, cal.cpu
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if c == 0 && cal.due() {
					pause.Lock()
					cal.sample()
					pause.Unlock()
				}
				i := int(next.Add(1) - 1)
				if i >= len(w.sched) {
					return
				}
				pause.RLock()
				rec, body := w.do(i, traced && i%2 == 1)
				pause.RUnlock()
				mu.Lock()
				if rec.err == nil {
					e := w.sched[i]
					if prev, ok := first[e.first]; !ok {
						first[e.first] = body
					} else if rec.outcome != "miss" && !bytes.Equal(prev, body) {
						rec.err = fmt.Errorf("request %d: cached answer (%s) differs from the first answer", i, rec.outcome)
					}
				}
				recs = append(recs, rec)
				if now := time.Now(); now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// The clients stop at the deadline, the calibration's pauses
	// included; neither the pauses nor the kernel's CPU time count.
	m := &measurement{
		cpu:    cpuSeconds() - c0 - (cal.cpu - calCPU0),
		window: (last.Sub(start) - (cal.spent - spent0)).Seconds(),
	}
	if int(next.Load()) >= len(w.sched) {
		m.notes = append(m.notes, fmt.Sprintf("serve schedule of %d requests exhausted", len(w.sched)))
	}
	var hits, misses []float64
	spans := newSpanTally()
	var tracedN, tracedMiss, coalesced, autoMiss int
	var fetch, lat, hash float64
	for _, r := range recs {
		m.record(r.err)
		m.latencies = append(m.latencies, r.lat)
		switch r.outcome {
		case "hit":
			hits = append(hits, r.lat)
		case "miss":
			misses = append(misses, r.lat)
		case "inflight":
			coalesced++
		}
		lat += r.lat
		if r.tree == nil {
			continue
		}
		tracedN++
		fetch += r.fetch
		spans.add(r.tree)
		spans.selfMs["unattributed"] += r.lat - r.tree.Seconds*1e3
		if r.outcome == "miss" {
			// xmi.Hash runs inside the request span, under no child span
			// (the compile-cache key); move its measured cost from the
			// server's self time to xmi.
			tracedMiss++
			hash += r.hash
			spans.selfMs["xmi"] += r.hash
			spans.selfMs["server"] -= r.hash
			if w.sched[r.entry].auto {
				autoMiss++
			}
		}
	}
	if traced {
		h1, m1 := w.est.CacheStats()
		n := float64(len(recs))
		m.layer = map[string]float64{}
		spans.fill(m.layer, tracedN)
		m.layer["xmi.hash_ms"] = ratio(hash, float64(tracedMiss))
		m.layer["estimator.compile_cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
		m.layer["analytic.resolved_share"] = ratio(float64(spans.solved), float64(autoMiss))
		m.layer["server.hit_latency_p50_ms"] = median(hits)
		m.layer["server.miss_latency_p50_ms"] = median(misses)
		m.layer["server.result_cache_hit_ratio"] = ratio(float64(len(hits)), n)
		m.layer["server.coalesced_share"] = ratio(float64(coalesced), n)
		m.layer["server.admission_ms"] = ratio(spans.seconds["admission"]*1e3, float64(spans.count["admission"]))
		m.layer["tracing_overhead_share"] = ratio(ratio(fetch, float64(tracedN)), ratio(lat, n))
		zeroLayers(m.layer)
	}
	return m, nil
}

// do sends schedule entry i and checks the answer. A traced request
// then fetches its span tree from GET /v1/traces/{id}, before the
// server's trace ring can evict it.
func (w *serveW) do(i int, traced bool) (reqRec, []byte) {
	e := w.sched[i]
	rec := reqRec{entry: i}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/estimate", "application/json", bytes.NewReader(w.bodies[e.first]))
	if err != nil {
		rec.lat = ms(time.Since(t0))
		rec.err = err
		return rec, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.lat = ms(time.Since(t0))
	rec.outcome = resp.Header.Get("X-Result-Cache")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("request %d: %s: %s", i, resp.Status, strings.TrimSpace(string(body)))
	}
	if err == nil {
		err = w.checkAnswer(e, body)
	}
	if err != nil {
		rec.err = err
		return rec, body
	}
	if !traced {
		return rec, body
	}
	f0 := time.Now()
	tree, err := w.fetchTrace(resp.Header.Get("X-Trace-Id"))
	rec.fetch = ms(time.Since(f0))
	if err != nil {
		rec.err = err
		return rec, body
	}
	rec.tree = tree
	if rec.outcome == "miss" {
		h0 := time.Now()
		if _, err := xmi.Hash(w.models[e.model].model); err != nil {
			rec.err = err
		}
		rec.hash = ms(time.Since(h0))
	}
	return rec, body
}

// checkAnswer compares a 200 answer with the interp reference makespan
// (simulated requests) or the analytic reference mean (mode=auto).
func (w *serveW) checkAnswer(e entry, body []byte) error {
	var er server.EstimateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return err
	}
	ref := w.refs.Serve[e.model]
	want, wantAnalytic := ref.Makespans[e.variant], false
	if e.auto {
		want, wantAnalytic = ref.Analytic[e.variant%serveGlobals], true
	}
	if er.Makespan != want || er.Analytic != wantAnalytic {
		return fmt.Errorf("model %d variant %d auto=%v: makespan %v (analytic=%v), reference %v",
			e.model, e.variant, e.auto, er.Makespan, er.Analytic, want)
	}
	return nil
}

func (w *serveW) fetchTrace(id string) (*obs.SpanNode, error) {
	if id == "" {
		return nil, errors.New("response carries no X-Trace-Id")
	}
	resp, err := w.client.Get(w.base + "/v1/traces/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/traces/%s: %s", id, resp.Status)
	}
	var tt obs.TraceTree
	if err := json.NewDecoder(resp.Body).Decode(&tt); err != nil {
		return nil, err
	}
	if tt.Root == nil {
		return nil, fmt.Errorf("trace %s has no root span", id)
	}
	return tt.Root, nil
}
