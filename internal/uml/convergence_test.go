package uml_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prophet/internal/builder"
	"prophet/internal/conformance"
	"prophet/internal/cppgen"
	"prophet/internal/gogen"
	"prophet/internal/modelgen"
	"prophet/internal/samples"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// convergenceMixes are the modelgen families of the differential test:
// the default blend and one family heavy in each branching construct.
var convergenceMixes = map[string]modelgen.Mix{
	"default":  modelgen.DefaultMix(),
	"decision": {Action: 0.3, Activity: 0.1, Loop: 0.05, Decision: 0.45, Weighted: 0.05, Fork: 0.05},
	"weighted": {Action: 0.3, Activity: 0.1, Loop: 0.05, Decision: 0.05, Weighted: 0.45, Fork: 0.05},
	"fork":     {Action: 0.3, Activity: 0.1, Loop: 0.05, Decision: 0.05, Weighted: 0.05, Fork: 0.45},
	"nested":   {Action: 0.2, Activity: 0.3, Loop: 0.2, Decision: 0.1, Weighted: 0.1, Fork: 0.1},
}

// fuzzSeedModels decodes the committed seed inputs of the whole-model
// fuzz targets; inputs the decoder refuses carry no flow graph.
func fuzzSeedModels(t *testing.T) map[string]*uml.Model {
	t.Helper()
	out := map[string]*uml.Model{}
	for _, dir := range []string{
		"../core/testdata/fuzz/FuzzPipeline",
		"../lower/testdata/fuzz/FuzzLoweredEquivalence",
		"../analytic/testdata/fuzz/FuzzAnalyticAgreement",
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fuzz seeds under %s (%v)", dir, err)
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			_, val, _ := strings.Cut(string(raw), "\n")
			val = strings.TrimSpace(val)
			val = strings.TrimSuffix(strings.TrimPrefix(val, "string("), ")")
			doc, err := strconv.Unquote(val)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			if m, err := xmi.DecodeString(doc); err == nil {
				out[f] = m
			}
		}
	}
	return out
}

// TestConvergenceMatchesBFS is the differential test of Diagram.Convergence
// (post-dominators) against BFSConvergence, the breadth-first search it
// replaced, on every decision and fork of the conformance corpus (the
// adversarial entries included), five modelgen families, the models the
// fuzz targets start from, and the committed seeds of FuzzPipeline,
// FuzzLoweredEquivalence and FuzzAnalyticAgreement. The two answers
// differ only where a branch leaves through a final node before the
// branches meet; TestDecisionEarlyExit and the checker's fork-closes rule
// cover those shapes.
func TestConvergenceMatchesBFS(t *testing.T) {
	models := map[string]*uml.Model{
		"samples/sample":     samples.Sample(),
		"samples/kernel6":    samples.Kernel6(),
		"samples/jacobi":     samples.Jacobi(),
		"samples/omp-region": samples.OmpRegion(),
		"samples/pipeline-4": samples.Pipeline(4),
	}
	corpus, err := conformance.Corpus("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(corpus, conformance.AdversarialEntries()...) {
		models["corpus/"+e.Name] = e.Model
	}
	for name, mix := range convergenceMixes {
		for seed := int64(1); seed <= 4; seed++ {
			p := modelgen.Params{Seed: seed, Nodes: 300 + int(seed)*250, Mix: mix}
			models["modelgen/"+name+"/"+strconv.FormatInt(seed, 10)] = modelgen.MustGenerate(p)
		}
	}
	for name, m := range fuzzSeedModels(t) {
		models[name] = m
	}

	decisions, forks := 0, 0
	for name, m := range models {
		for _, d := range m.Diagrams() {
			for _, n := range d.Nodes() {
				switch n.Kind() {
				case uml.KindDecision:
					decisions++
				case uml.KindFork:
					forks++
				default:
					continue
				}
				got := d.Convergence(n)
				want := uml.BFSConvergence(d, uml.BranchHeads(d, n))
				if got != want {
					t.Errorf("%s: diagram %q %v %q: post-dominator %v, BFS %v",
						name, d.Name(), n.Kind(), n.Name(), nodeID(got), nodeID(want))
				}
			}
		}
	}
	if decisions == 0 || forks == 0 {
		t.Fatalf("inputs hold %d decisions and %d forks; want both", decisions, forks)
	}
	t.Logf("%d models: %d decisions and %d forks agree", len(models), decisions, forks)
}

// TestConvergenceConcurrent queries one diagram from many goroutines
// before anything has built its flow graph; under -race this checks that
// the lazily built post-dominator memo, and the reachability from the
// initial node kept with it, are safe to share.
func TestConvergenceConcurrent(t *testing.T) {
	p := modelgen.Params{Seed: 7, Nodes: 600}
	m, ref := modelgen.MustGenerate(p), modelgen.MustGenerate(p)
	for i, d := range m.Diagrams() {
		rd := ref.Diagrams()[i]
		want := make([]string, len(rd.Nodes()))
		for j, n := range rd.Nodes() {
			want[j] = nodeID(rd.Convergence(n))
		}
		wantReach := fmt.Sprint(rd.Reachable(rd.Initial()))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j, n := range d.Nodes() {
					if got := nodeID(d.Convergence(n)); got != want[j] {
						t.Errorf("diagram %q node %q: %s, want %s", d.Name(), n.ID(), got, want[j])
					}
				}
				if got := fmt.Sprint(d.Reachable(d.Initial())); got != wantReach {
					t.Errorf("diagram %q: reachable %s, want %s", d.Name(), got, wantReach)
				}
			}()
		}
		wg.Wait()
	}
}

// earlyExitModel is a decision whose else arm can leave through the final
// node before the arms meet at M: the path x <= 0, y > 0 runs B only.
// Every path still passes the final node, so D closes there, not at M.
func earlyExitModel() *uml.Model {
	b := builder.New("early-exit")
	b.Global("x", "double").Global("y", "double")
	d := b.Diagram("main")
	d.Initial()
	d.Decision("D")
	d.Decision("D2")
	d.Action("A").Cost("1")
	d.Action("B").Cost("2")
	d.Merge("M")
	d.Action("C").Cost("4")
	d.Final()
	d.Flow("initial", "D").
		FlowIf("D", "A", "x > 0").FlowIf("D", "B", "else").
		Chain("A", "M").Chain("B", "D2").
		FlowIf("D2", "final", "y > 0").FlowIf("D2", "M", "else").
		Chain("M", "C", "final")
	return builder.MustBuild(b)
}

// TestDecisionEarlyExit pins the generated code of earlyExitModel: C runs
// inside each arm that reaches M, never after the outer if, where it would
// also run on the path that has already left.
func TestDecisionEarlyExit(t *testing.T) {
	m := earlyExitModel()
	if got := m.Main().Convergence(m.Main().NodeByName("D")); got == nil || got.Kind() != uml.KindFinal {
		t.Fatalf("D closes at %s, want the final node", nodeID(got))
	}
	goSrc, err := gogen.New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	cpp, err := cppgen.New().Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lang, src, call, outer string }{
		{"Go", goSrc, "BlockC()", "\t"},
		{"C++", cpp, "c.execute(", "    "},
	} {
		calls := 0
		for _, line := range strings.Split(c.src, "\n") {
			if !strings.HasPrefix(strings.TrimLeft(line, " \t"), c.call) {
				continue
			}
			calls++
			if !strings.HasPrefix(line, c.outer+c.outer) {
				t.Errorf("%s: %q runs outside the decision's arms", c.lang, line)
			}
		}
		if calls != 2 {
			t.Errorf("%s: %d calls of C, want one in each arm that reaches M:\n%s", c.lang, calls, c.src)
		}
	}
}

func nodeID(n uml.Node) string {
	if n == nil {
		return "<nil>"
	}
	return n.ID()
}
