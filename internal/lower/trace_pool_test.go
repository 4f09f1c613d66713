package lower

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"prophet/internal/interp"
	"prophet/internal/modelgen"
	"prophet/internal/trace"
)

// Runs record their events into blocks from a pool shared by every run,
// so a trace must not alias a block that a later run records into: a
// result's events stay as they were after the same program runs again
// and while other programs run concurrently, on both backends.
func TestTracePoolNoAliasing(t *testing.T) {
	type job struct {
		name string
		run  func(interp.Config) (*interp.Result, error)
		cfg  interp.Config
	}
	var jobs []job
	for _, jobsInLoop := range []int{300, 150} {
		pr, err := interp.Compile(jobLoopModel(jobsInLoop), nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{fmt.Sprint("direct-", jobsInLoop), Lower(pr).Run,
			interp.Config{Globals: map[string]float64{"scale": 1}, Seed: int64(jobsInLoop)}})
	}
	m, err := modelgen.Generate(modelgen.Params{Seed: 3, Nodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := interp.Compile(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs,
		job{"engine", Lower(pr).Run, interp.Config{Seed: 2}},
		job{"interp", pr.Run, interp.Config{Seed: 2}})

	first := make([]*trace.Trace, len(jobs))
	want := make([][]trace.Event, len(jobs))
	for i, j := range jobs {
		res, err := j.run(j.cfg)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if len(res.Trace.Events) < 1000 {
			t.Fatalf("%s: %d events, want several blocks' worth", j.name, len(res.Trace.Events))
		}
		first[i], want[i] = res.Trace, slices.Clone(res.Trace.Events)
	}
	check := func(when string) {
		for i, j := range jobs {
			if !slices.Equal(first[i].Events, want[i]) {
				t.Fatalf("%s: first trace changed %s", j.name, when)
			}
		}
	}

	for i, j := range jobs {
		res, err := j.run(j.cfg)
		if err != nil {
			t.Fatalf("%s again: %v", j.name, err)
		}
		if !slices.Equal(res.Trace.Events, want[i]) {
			t.Fatalf("%s: second run recorded a different trace", j.name)
		}
	}
	check("after a second run")

	var wg sync.WaitGroup
	errs := make(chan error, 3*len(jobs))
	for range 3 {
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := j.run(j.cfg)
				if err == nil && !slices.Equal(res.Trace.Events, want[i]) {
					err = fmt.Errorf("%s: concurrent run recorded a different trace", j.name)
				}
				if err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	check("after concurrent runs")
}
