package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"prophet/internal/analytic"
	"prophet/internal/core"
	"prophet/internal/estimator"
	"prophet/internal/modelgen"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// refs are the reference outputs every checked operation is compared
// with. They were computed once by `--regen-refs`: makespans on the
// interp backend (the tree-walking interpreter, independent of the
// lowered backend the workloads run on), analytic means by
// analytic.Solve, and the sha256 of the generated C++ and Go.
type refs struct {
	Transform []transformRef `json:"transform"`
	// MonteCarlo holds the interp makespan of StochasticService for
	// seeds 1..len, one run each.
	MonteCarlo []float64 `json:"montecarlo"`
	// Serve holds, per served model, the interp makespan of every
	// variant and the analytic mean of every globals value.
	Serve []serveRef `json:"serve"`
}

type transformRef struct {
	Makespan  float64 `json:"makespan"`
	CppSHA256 string  `json:"cpp_sha256"`
	GoSHA256  string  `json:"go_sha256"`
}

type serveRef struct {
	Makespans []float64 `json:"makespans"`
	Analytic  []float64 `json:"analytic"`
}

//go:embed refs.json
var refsJSON []byte

func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("refs.json: %w", err)
	}
	if len(r.Transform) != transformPool || len(r.MonteCarlo) != mcBases+mcRuns-1 || len(r.Serve) != len(serveModels()) {
		return nil, fmt.Errorf("refs.json does not match the input pools; regenerate with --regen-refs")
	}
	return &r, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// interpMakespan evaluates m on the interp backend.
func interpMakespan(e *estimator.Estimator, m *uml.Model, seed int64, globals map[string]float64) (float64, error) {
	est, err := e.Estimate(estimator.Request{
		Model: m, Seed: seed, Globals: globals, Backend: estimator.BackendInterp,
	})
	if err != nil {
		return 0, err
	}
	return est.Makespan, nil
}

// parallelFill runs fn(i) for i in [0, n) on two goroutines and returns
// the first error.
func parallelFill(n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// regenRefs recomputes every reference and writes refs.json to path.
func regenRefs(path string) error {
	var r refs

	specs := transformSpecs()
	r.Transform = make([]transformRef, len(specs))
	err := parallelFill(len(specs), func(i int) error {
		m, err := modelgen.Generate(specs[i])
		if err != nil {
			return err
		}
		doc, err := xmi.EncodeString(m)
		if err != nil {
			return err
		}
		m, err = xmi.DecodeString(doc)
		if err != nil {
			return err
		}
		p := core.New()
		cpp, err := p.TransformCpp(m)
		if err != nil {
			return err
		}
		gosrc, err := p.TransformGo(m)
		if err != nil {
			return err
		}
		ms, err := interpMakespan(estimator.New(), m, 0, nil)
		if err != nil {
			return fmt.Errorf("transform pool %d: %w", i, err)
		}
		r.Transform[i] = transformRef{Makespan: ms, CppSHA256: digest(cpp), GoSHA256: digest(gosrc)}
		return nil
	})
	if err != nil {
		return err
	}

	mcm, mcg := mcModel()
	r.MonteCarlo = make([]float64, mcBases+mcRuns-1)
	e := estimator.New()
	err = parallelFill(len(r.MonteCarlo), func(i int) error {
		ms, err := interpMakespan(e, mcm, int64(i+1), mcg)
		r.MonteCarlo[i] = ms
		return err
	})
	if err != nil {
		return err
	}
	// Every batch of the pool must pass the CLT band check, so a
	// failure at run time can only mean the program changed.
	sol, err := analytic.Solve(mcm, analytic.Config{Globals: mcg})
	if err != nil {
		return err
	}
	for b := int64(1); b <= mcBases; b++ {
		if err := checkBatch(mcBatchRef(&r, b), mcBatchRef(&r, b), sol.Mean, sol.Variance); err != nil {
			return err
		}
	}

	for _, sm := range serveModels() {
		sr := serveRef{Makespans: make([]float64, serveVariants)}
		err := parallelFill(serveVariants, func(v int) error {
			seed, g := sm.variant(v)
			ms, err := interpMakespan(e, sm.model, seed, g)
			sr.Makespans[v] = ms
			return err
		})
		if err != nil {
			return err
		}
		for g := 0; g < serveGlobals; g++ {
			_, globals := sm.variant(g)
			sol, err := analytic.Solve(sm.model, analytic.Config{Globals: globals})
			if err != nil {
				return err
			}
			sr.Analytic = append(sr.Analytic, sol.Mean)
		}
		r.Serve = append(r.Serve, sr)
	}

	b, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// mcBatchRef folds the reference makespans of the batch with seed base
// b exactly as estimator.MonteCarlo folds its runs.
func mcBatchRef(r *refs, b int64) *estimator.MonteCarloResult {
	return estimator.SummarizeMakespans(r.MonteCarlo[b-1 : b-1+mcRuns])
}
