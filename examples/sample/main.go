// Sample reproduces the paper's Section 4 example exactly (experiments
// FIG7 and FIG8 of EXPERIMENTS.md): the UML specification of the sample
// model — main activity with A1, a branch on the global variable GV into
// activity SA or action A2, then A4 — is built programmatically (the
// scripted equivalent of Figure 7a), persisted as XML, transformed
// automatically to its C++ representation (Figure 8), and finally
// evaluated by simulation for both branch outcomes.
//
//	go run ./examples/sample
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"prophet"
	"prophet/internal/samples"
	"prophet/internal/uml"
)

func main() {
	p := prophet.New()
	m := samples.Sample()

	// Persist the model the way Teuta stores it (Models (XML), Figure 2).
	dir, err := os.MkdirTemp("", "prophet-sample")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	xmlPath := filepath.Join(dir, "sample.xml")
	if err := prophet.SaveModel(xmlPath, m); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model persisted to %s\n\n", xmlPath)

	// Model checking.
	if rep := p.Check(m); rep.HasErrors() {
		log.Fatalf("sample model does not conform:\n%v", rep.Diagnostics)
	}

	// The automatic UML -> C++ transformation (Figure 5 algorithm); the
	// output reproduces the structure of Figure 8.
	cpp, err := p.TransformCpp(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== C++ representation of the sample model (Figure 8) ===")
	fmt.Println(cpp)

	// Evaluate by simulation. A1's associated code fragment (Figure 7b)
	// sets GV = 10, so the branch executes activity SA.
	tracePath := filepath.Join(dir, "sample.trace")
	est, err := p.Estimate(prophet.Request{Model: m, TracePath: tracePath})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted execution time (GV > 0, activity SA): %.4g\n", est.Makespan)
	fmt.Println()
	fmt.Print(est.Summary.Report())
	fmt.Println()
	fmt.Print(prophet.Gantt(est.Trace, 60))

	// Flip the branch: suppress the code fragment and force GV <= 0, so
	// the else path through A2 executes instead (Figure 8b's else arm).
	m2 := uml.Clone(m)
	a1 := m2.Main().NodeByName("A1").(*uml.ActionNode)
	a1.SetCode("P = 4;")
	est2, err := p.Estimate(prophet.Request{
		Model:   m2,
		Globals: map[string]float64{"GV": -1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicted execution time (GV <= 0, action A2): %.4g\n", est2.Makespan)
}
