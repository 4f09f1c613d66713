package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/runner"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// localShardHeader marks a request as a shard sub-job: the receiving
// prophetd executes it in-process, never re-decomposing it across its own
// worker pool, so a mesh of mutually-configured coordinators cannot
// recurse.
const localShardHeader = "X-Prophet-Local"

// upstreamError is a shard sub-job failure reported by a worker. Client
// errors (4xx) are reproduced verbatim at the coordinator — the model is
// as broken on one node as on eight — while worker/transport failures
// surface as 502, naming the worker.
type upstreamError struct {
	Worker string
	Status int // 0 for transport errors
	Msg    string
}

func (u *upstreamError) Error() string {
	if u.Status == 0 {
		return fmt.Sprintf("worker %s: %s", u.Worker, u.Msg)
	}
	return fmt.Sprintf("worker %s: %d: %s", u.Worker, u.Status, u.Msg)
}

// hashRing is a consistent-hash ring over the worker pool. Each worker
// owns ringVnodes points on a uint64 circle; a job key hashes to a point
// and is routed to the next worker clockwise. Routing is a pure function
// of (worker set, key): every coordinator with the same -workers list
// routes the same sub-range of the same model to the same worker, which
// is what gives workers result-cache and prepared-record affinity for
// the shards they own.
type hashRing struct {
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	worker int
}

const ringVnodes = 64

func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

func newHashRing(workers []string) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(workers)*ringVnodes)}
	for wi, w := range workers {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(w + "#" + strconv.Itoa(v)), worker: wi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].worker < r.points[j].worker
	})
	return r
}

// pick routes a job key to a worker index.
func (r *hashRing) pick(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].worker
}

// shardPool fans sweep and Monte Carlo sub-ranges out across a set of
// prophetd workers. The coordinator decomposes the range with
// runner.Split, routes each sub-range by consistent hash on (model hash,
// sub-range index), executes the sub-jobs concurrently through
// runner.Map — whose index-ordered merge and lowest-index error rule keep
// the fan-out deterministic — and re-derives any cross-point statistics
// over the merged slice. Workers evaluate sub-jobs with their local
// estimator (the localShardHeader pins them to in-process execution), so
// results are bit-identical to a single node evaluating the whole range:
// the same seeds, in the same order, folded by the same code.
type shardPool struct {
	workers []string
	ring    *hashRing
	client  *http.Client
	jobs    *obs.CounterVec // server_shard_jobs_total{worker}
	errs    *obs.CounterVec // server_shard_errors_total{worker}
}

func newShardPool(workers []string, reg *obs.Registry) *shardPool {
	p := &shardPool{
		workers: workers,
		ring:    newHashRing(workers),
		// Transport-level sanity timeouts; the per-job deadline rides the
		// request context.
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
		jobs: reg.CounterVec("server_shard_jobs_total", "worker"),
		errs: reg.CounterVec("server_shard_errors_total", "worker"),
	}
	reg.Gauge("server_shard_workers").Set(float64(len(workers)))
	return p
}

// parts is how many sub-ranges an n-point range decomposes into: one per
// worker, capped at n (Split never returns empty ranges).
func (p *shardPool) parts(n int) int {
	if len(p.workers) < n {
		return len(p.workers)
	}
	return n
}

// timeoutMSLeft converts ctx's remaining deadline budget to the
// timeout_ms a sub-request carries, so a worker never keeps evaluating a
// shard whose coordinator has already given up.
func timeoutMSLeft(ctx context.Context) int64 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return ms
}

// post sends one JSON sub-request to a worker and decodes the response
// into out. A 404 — the worker does not have the model yet — uploads the
// model's XMI (lazily encoded once per fan-out by the caller) and retries
// once; routing affinity makes re-uploads rare after warm-up.
func (p *shardPool) post(ctx context.Context, worker int, path string, body any, xmiOf func() (string, error), out any) error {
	w := p.workers[worker]
	p.jobs.With(w).Inc()
	status, raw, err := p.roundTrip(ctx, w, path, body)
	if err != nil {
		p.errs.With(w).Inc()
		return &upstreamError{Worker: w, Msg: err.Error()}
	}
	if status == http.StatusNotFound && xmiOf != nil {
		xml, err := xmiOf()
		if err != nil {
			return fmt.Errorf("server: encode model for shard upload: %w", err)
		}
		if err := p.uploadModel(ctx, w, xml); err != nil {
			p.errs.With(w).Inc()
			return err
		}
		status, raw, err = p.roundTrip(ctx, w, path, body)
		if err != nil {
			p.errs.With(w).Inc()
			return &upstreamError{Worker: w, Msg: err.Error()}
		}
	}
	if status != http.StatusOK {
		p.errs.With(w).Inc()
		var er ErrorResponse
		msg := string(raw)
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return &upstreamError{Worker: w, Status: status, Msg: msg}
	}
	if err := json.Unmarshal(raw, out); err != nil {
		p.errs.With(w).Inc()
		return &upstreamError{Worker: w, Msg: fmt.Sprintf("bad response: %v", err)}
	}
	return nil
}

func (p *shardPool) roundTrip(ctx context.Context, worker, path string, body any) (int, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+path, bytes.NewReader(buf))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(localShardHeader, "1")
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func (p *shardPool) uploadModel(ctx context.Context, worker, xml string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/models", strings.NewReader(xml))
	if err != nil {
		return &upstreamError{Worker: worker, Msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := p.client.Do(req)
	if err != nil {
		return &upstreamError{Worker: worker, Msg: err.Error()}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return &upstreamError{Worker: worker, Status: resp.StatusCode, Msg: "model upload: " + string(raw)}
	}
	return nil
}

// shardOpts builds the runner options of one fan-out: every sub-job in
// flight at once (they are I/O-bound HTTP calls), merged in index order.
func shardOpts(n int) runner.Options {
	return runner.Options{Workers: n, Label: "shard"}
}

// jobKey is the consistent-hash routing key of one sub-range: the model's
// content hash plus the sub-range index.
func jobKey(modelID string, index int) string {
	return modelID + "#" + strconv.Itoa(index)
}

// isShardJob reports whether the request is a sub-job dispatched by
// another prophetd's shard coordinator; such requests always evaluate
// locally.
func isShardJob(r *http.Request) bool {
	return r.Header.Get(localShardHeader) != ""
}

// lazyXMI encodes a model back to canonical XMI at most once per
// fan-out, and only if some worker turns out not to have it.
func lazyXMI(m *uml.Model) func() (string, error) {
	var once sync.Once
	var xml string
	var err error
	return func() (string, error) {
		once.Do(func() { xml, err = xmi.EncodeString(m) })
		return xml, err
	}
}

// shardSweep evaluates a sweep by decomposing its point range across the
// worker pool and merging the sub-range results in range order. Shard-
// local speedup/efficiency are relative to the wrong first point, so the
// coordinator re-derives them over the merged slice with the estimator's
// own derivation — the same float operations a single node applies.
func (s *Server) shardSweep(ctx context.Context, id string, m *uml.Model, sr *SweepRequest) (*SweepResponse, error) {
	xmiOf := lazyXMI(m)
	timeout := timeoutMSLeft(ctx)
	resp := &SweepResponse{ModelID: id}
	if len(sr.Processes) > 0 {
		ranges := runner.Split(len(sr.Processes), s.pool.parts(len(sr.Processes)))
		subs, err := runner.Map(ctx, len(ranges), shardOpts(len(ranges)),
			func(ctx context.Context, i int) ([]SweepPoint, error) {
				sub := *sr
				sub.ModelRef = ModelRef{ModelID: id}
				sub.TimeoutMS = timeout
				sub.Processes = sr.Processes[ranges[i].Lo:ranges[i].Hi]
				var sresp SweepResponse
				err := s.pool.post(ctx, s.pool.ring.pick(jobKey(id, i)), "/v1/sweep", &sub, xmiOf, &sresp)
				return sresp.Points, err
			})
		if err != nil {
			return nil, err
		}
		merged := make([]estimator.SweepPoint, 0, len(sr.Processes))
		for _, pts := range subs {
			for _, p := range pts {
				merged = append(merged, estimator.SweepPoint(p))
			}
		}
		estimator.DeriveSweepStats(merged)
		for _, p := range merged {
			resp.Points = append(resp.Points, SweepPoint(p))
		}
		return resp, nil
	}
	ranges := runner.Split(len(sr.Global.Values), s.pool.parts(len(sr.Global.Values)))
	subs, err := runner.Map(ctx, len(ranges), shardOpts(len(ranges)),
		func(ctx context.Context, i int) ([]GlobalPoint, error) {
			sub := *sr
			sub.ModelRef = ModelRef{ModelID: id}
			sub.TimeoutMS = timeout
			sub.Global = &GlobalSweep{Name: sr.Global.Name, Values: sr.Global.Values[ranges[i].Lo:ranges[i].Hi]}
			var sresp SweepResponse
			err := s.pool.post(ctx, s.pool.ring.pick(jobKey(id, i)), "/v1/sweep", &sub, xmiOf, &sresp)
			return sresp.GlobalPoints, err
		})
	if err != nil {
		return nil, err
	}
	for _, pts := range subs {
		resp.GlobalPoints = append(resp.GlobalPoints, pts...)
	}
	return resp, nil
}

// shardMonteCarlo evaluates a Monte Carlo batch by decomposing the run
// range across the worker pool: shard i evaluates ranges[i].Len() runs
// with seed base runner.SubSeed(seed, ranges[i].Lo) and returns its raw
// makespans, which the coordinator concatenates in range order — exactly
// the seed-to-run mapping of a single node, ready for one shared
// SummarizeMakespans fold.
func (s *Server) shardMonteCarlo(ctx context.Context, id string, m *uml.Model, mr *MonteCarloRequest) ([]float64, error) {
	xmiOf := lazyXMI(m)
	timeout := timeoutMSLeft(ctx)
	ranges := runner.Split(mr.Runs, s.pool.parts(mr.Runs))
	subs, err := runner.Map(ctx, len(ranges), shardOpts(len(ranges)),
		func(ctx context.Context, i int) ([]float64, error) {
			sub := *mr
			sub.ModelRef = ModelRef{ModelID: id}
			sub.TimeoutMS = timeout
			sub.Runs = ranges[i].Len()
			sub.Seed = runner.SubSeed(mr.Seed, ranges[i].Lo)
			sub.IncludeMakespans = true
			wi := s.pool.ring.pick(jobKey(id, i))
			var sresp MonteCarloResponse
			if err := s.pool.post(ctx, wi, "/v1/montecarlo", &sub, xmiOf, &sresp); err != nil {
				return nil, err
			}
			if len(sresp.Makespans) != sub.Runs {
				return nil, &upstreamError{Worker: s.pool.workers[wi],
					Msg: fmt.Sprintf("shard returned %d makespans, want %d", len(sresp.Makespans), sub.Runs)}
			}
			return sresp.Makespans, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, mr.Runs)
	for _, ms := range subs {
		out = append(out, ms...)
	}
	return out, nil
}
