// Package conformance locks the whole Performance Prophet pipeline —
// XML/XMI parse → model check → C++/Go generation → simulation → trace →
// summary — against a committed corpus of models, following the
// transformation-contest methodology of validating model transformations
// against a fixed case set (TTC; see PAPERS.md).
//
// Two mechanisms guard the pipeline:
//
//   - Golden artifacts: every corpus model is driven through every stage
//     and each stage's normalized output (canonical XML, checker report,
//     generated C++, generated Go, trace file, run summary) is compared
//     byte-for-byte against files committed under testdata/golden/. An
//     update mode regenerates them deterministically.
//
//   - Differential oracles: independent evaluations of the same model
//     must agree — the simulated makespan against an analytic flow walk
//     (the generated-C++ flow semantics re-implemented without the
//     simulator), the trace against the reported makespan, sequential
//     against parallel batch evaluation (bit-identical), Run against
//     RunUntil(∞) (identical traces), and parse→serialize→parse
//     round-trips (fixed point, empty structural diff).
//
// The harness runs both as `go test ./internal/conformance` (tier-1
// catches drift) and as the cmd/conformance CLI (CI artifact + local
// golden-update workflow). See docs/TESTING.md for the workflow.
package conformance

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"prophet/internal/checker"
	"prophet/internal/core"
	"prophet/internal/cppgen"
	"prophet/internal/machine"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// EvalConfig fixes the evaluation parameters of one corpus entry so the
// golden artifacts are reproducible.
type EvalConfig struct {
	// Params are the system parameters the model is evaluated under.
	// The zero value means machine.DefaultParams().
	Params machine.SystemParams
	// Globals assigns the model's global variables.
	Globals map[string]float64
	// Seed drives weighted-branch selection and distribution draws.
	// Seed 0 means seed 1 — the one normalization shared by the sim
	// engine, runner.Seeds, and prophetd's request key.
	Seed int64
	// MaxSteps bounds element executions per process (0 = default);
	// corpus models with flow cycles set it as a runaway guard.
	MaxSteps int
}

// Entry is one corpus model plus its fixed evaluation configuration.
type Entry struct {
	// Name identifies the entry; golden artifacts live under
	// <golden>/<Name>/.
	Name string
	// Source records where the model came from: "builtin" or the corpus
	// file path.
	Source string
	// Model is the performance model.
	Model *uml.Model
	// Config fixes the evaluation.
	Config EvalConfig
	// Analytic marks models whose makespan the independent analytic flow
	// walker can predict exactly: single process on one processor,
	// guard-only decisions, no messaging or threading elements.
	Analytic bool
	// DigestGolden stores each golden artifact as its sha256 content
	// address instead of the full bytes. Generated scalability entries
	// (tens of thousands of nodes) use this: the comparison is still
	// byte-exact, but megabytes of generated C++ and trace text stay out
	// of the repository.
	DigestGolden bool
}

// Artifact names, in pipeline-stage order.
const (
	ArtModelXML = "model.xml"    // canonical serialization (parse stage)
	ArtCheck    = "check.txt"    // model-checker report
	ArtCpp      = "model.cpp"    // generated C++ representation
	ArtGo       = "model_go.txt" // generated Go program skeleton
	ArtTrace    = "run.trace"    // simulation trace file (TF)
	ArtSummary  = "summary.txt"  // trace summary + final globals + utilization
)

// ArtifactNames lists every artifact the harness produces, in stage order.
func ArtifactNames() []string {
	return []string{ArtModelXML, ArtCheck, ArtCpp, ArtGo, ArtTrace, ArtSummary}
}

// Request builds the estimator request for an entry.
func (e Entry) Request() core.Request {
	return core.Request{
		Model:    e.Model,
		Params:   e.Config.Params,
		Globals:  e.Config.Globals,
		Seed:     e.Config.Seed,
		MaxSteps: e.Config.MaxSteps,
	}
}

// Artifacts drives the entry through the full pipeline and returns the
// normalized per-stage outputs keyed by artifact name. Every stage must
// succeed; a stage error aborts with a message naming the stage.
func Artifacts(e Entry) (map[string]string, error) {
	p := core.New()
	arts := make(map[string]string, 6)

	xml, err := p.ModelToXML(e.Model)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: serialize: %w", e.Name, err)
	}
	arts[ArtModelXML] = normalize(xml)

	rep := p.Check(e.Model)
	arts[ArtCheck] = normalize(checkText(rep.Diagnostics))
	if rep.HasErrors() {
		return nil, fmt.Errorf("conformance: %s: model fails checking: %s", e.Name, arts[ArtCheck])
	}

	// A code generator may deterministically reject a model the simulator
	// accepts (cppgen requires structured loops, so flow-graph cycles are
	// refused). The rejection is pipeline behavior too: it becomes the
	// artifact content, and the golden file pins the exact message.
	if cpp, err := p.TransformCpp(e.Model); err != nil {
		arts[ArtCpp] = normalize("(generation refused)\n" + err.Error())
	} else if err := cppgen.ValidateStructure(cpp); err != nil {
		return nil, fmt.Errorf("conformance: %s: generated C++ structure: %w", e.Name, err)
	} else {
		arts[ArtCpp] = normalize(cpp)
	}

	if gosrc, err := p.TransformGo(e.Model); err != nil {
		arts[ArtGo] = normalize("(generation refused)\n" + err.Error())
	} else if _, err := parser.ParseFile(token.NewFileSet(), e.Name+".go", gosrc, 0); err != nil {
		return nil, fmt.Errorf("conformance: %s: generated Go does not parse: %w", e.Name, err)
	} else {
		arts[ArtGo] = normalize(gosrc)
	}

	est, err := p.Estimate(e.Request())
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: estimate: %w", e.Name, err)
	}
	var tb strings.Builder
	if err := trace.Write(&tb, est.Trace); err != nil {
		return nil, fmt.Errorf("conformance: %s: trace: %w", e.Name, err)
	}
	arts[ArtTrace] = normalize(tb.String())
	arts[ArtSummary] = normalize(summaryText(est))
	return arts, nil
}

// checkText renders a checker report one diagnostic per line.
func checkText(diags []checker.Diagnostic) string {
	if len(diags) == 0 {
		return "(no diagnostics)\n"
	}
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// summaryText renders the evaluation outcome: the trace summary table,
// the per-node CPU utilization and the final global-variable values, all
// with shortest-round-trip float formatting so the text is stable across
// runs.
func summaryText(est *core.Estimate) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "makespan-exact: %s\n", formatFloat(est.Makespan))
	sb.WriteString(est.Summary.Report())
	for node, u := range est.CPUUtilization {
		fmt.Fprintf(&sb, "cpu node %d: %s\n", node, formatFloat(u))
	}
	names := make([]string, 0, len(est.Globals))
	for name := range est.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "global %s: %s\n", name, formatFloat(est.Globals[name]))
	}
	return sb.String()
}

// formatFloat renders the shortest decimal that round-trips to the same
// float64, so golden files stay minimal and exact.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// normalize canonicalizes an artifact for comparison: CRLF to LF and a
// single trailing newline.
func normalize(s string) string {
	s = strings.ReplaceAll(s, "\r\n", "\n")
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return "(empty)\n"
	}
	return s + "\n"
}

// FindRepoRoot walks up from dir (or the working directory when dir is
// empty) to the nearest directory containing go.mod, which is where
// testdata/corpus and testdata/golden live.
func FindRepoRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("conformance: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// DefaultDirs resolves the conventional corpus and golden directories
// relative to the repository root.
func DefaultDirs() (corpus, golden string, err error) {
	root, err := FindRepoRoot("")
	if err != nil {
		return "", "", err
	}
	return filepath.Join(root, "testdata", "corpus"), filepath.Join(root, "testdata", "golden"), nil
}
