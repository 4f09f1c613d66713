// Package core assembles the full Performance Prophet pipeline of the
// paper's Figure 2: model I/O (XML), model checking (MCF-configured),
// automatic transformation to the C++ representation (the paper's core
// contribution), alternative representations (DOT, generated Go program
// code), and model evaluation by simulation (Performance Estimator +
// trace file).
//
// It is the one-stop API that the command-line tools, the examples and the
// public root package build on:
//
//	p := core.New()
//	m, _ := p.LoadModel("model.xml")
//	if rep := p.Check(m); rep.HasErrors() { ... }
//	cpp, _ := p.TransformCpp(m)         // Figure 5 algorithm
//	est, _ := p.Estimate(core.Request{Model: m, Params: sp})
package core

import (
	"fmt"

	"prophet/internal/checker"
	"prophet/internal/cppgen"
	"prophet/internal/dot"
	"prophet/internal/estimator"
	"prophet/internal/gogen"
	"prophet/internal/machine"
	"prophet/internal/mdgen"
	"prophet/internal/profile"
	"prophet/internal/trace"
	"prophet/internal/uml"
	"prophet/internal/xmi"
)

// Request re-exports the estimator request type.
type Request = estimator.Request

// Estimate re-exports the estimator result type.
type Estimate = estimator.Estimate

// SystemParams re-exports the machine system parameters (SP).
type SystemParams = machine.SystemParams

// NetParams re-exports the interconnect parameters.
type NetParams = machine.NetParams

// Prophet is the assembled modeling-and-prediction system.
type Prophet struct {
	registry  *profile.Registry
	checker   *checker.Checker
	estimator *estimator.Estimator
	cpp       *cppgen.Generator
	gogen     *gogen.Generator
}

// Options configure the pipeline.
type Options struct {
	// CheckerConfig selects/grades model-checking rules (the MCF).
	CheckerConfig checker.Config
	// CppOptions adjust the generated C++.
	CppOptions cppgen.Options
	// GoOptions adjust the generated Go program code.
	GoOptions gogen.Options
}

// New assembles a pipeline with the standard profile and defaults.
func New() *Prophet {
	return NewWith(Options{
		CppOptions: cppgen.DefaultOptions(),
		GoOptions:  gogen.DefaultOptions(),
	})
}

// NewWith assembles a pipeline with explicit options.
func NewWith(opts Options) *Prophet {
	reg := profile.NewRegistry()
	return &Prophet{
		registry:  reg,
		checker:   checker.NewWith(reg, opts.CheckerConfig),
		estimator: estimator.NewWith(reg, opts.CheckerConfig),
		cpp:       cppgen.NewWith(reg, opts.CppOptions),
		gogen:     gogen.NewWith(reg, opts.GoOptions),
	}
}

// Registry exposes the profile registry (for registering user-defined
// stereotypes).
func (p *Prophet) Registry() *profile.Registry { return p.registry }

// LoadModel reads a model from an XML file.
func (p *Prophet) LoadModel(path string) (*uml.Model, error) {
	return xmi.Load(path)
}

// SaveModel writes a model to an XML file.
func (p *Prophet) SaveModel(path string, m *uml.Model) error {
	return xmi.Save(path, m)
}

// ModelToXML renders a model as XML text.
func (p *Prophet) ModelToXML(m *uml.Model) (string, error) {
	return xmi.EncodeString(m)
}

// Check runs the Model Checker.
func (p *Prophet) Check(m *uml.Model) *checker.Report {
	return p.checker.Check(m)
}

// TransformCpp checks the model and, if it is well-formed, transforms it
// to its C++ representation — the automatic transformation of the paper's
// title. The check reads the report kept in the model's memo, so a model
// already checked is not walked again.
func (p *Prophet) TransformCpp(m *uml.Model) (string, error) {
	if rep := p.checker.Check(m); rep.HasErrors() {
		return "", &estimator.CheckError{Model: m.Name(), Report: rep}
	}
	return p.cpp.Generate(m)
}

// TransformGo checks the model and generates the Go program skeleton
// (the paper's stated future-work extension).
func (p *Prophet) TransformGo(m *uml.Model) (string, error) {
	if rep := p.checker.Check(m); rep.HasErrors() {
		return "", &estimator.CheckError{Model: m.Name(), Report: rep}
	}
	return p.gogen.Generate(m)
}

// TransformDot renders the model as Graphviz DOT (no checking required —
// visualization helps debug broken models).
func (p *Prophet) TransformDot(m *uml.Model) (string, error) {
	return dot.Render(m)
}

// TransformMarkdown renders the model as markdown documentation.
func (p *Prophet) TransformMarkdown(m *uml.Model) (string, error) {
	return mdgen.Render(m)
}

// Estimate evaluates the model by simulation and returns the prediction.
func (p *Prophet) Estimate(req Request) (*Estimate, error) {
	return p.estimator.Estimate(req)
}

// SweepProcesses evaluates the model across process counts.
func (p *Prophet) SweepProcesses(req Request, counts []int) ([]estimator.SweepPoint, error) {
	return p.estimator.SweepProcesses(req, counts)
}

// SweepGlobal evaluates the model across values of a global variable.
func (p *Prophet) SweepGlobal(req Request, name string, values []float64) ([]estimator.GlobalPoint, error) {
	return p.estimator.SweepGlobal(req, name, values)
}

// Sensitivity reports the makespan elasticity of each named global,
// plus the variables that had to be skipped (see estimator.Sensitivity).
func (p *Prophet) Sensitivity(req Request, names []string, delta float64) (*estimator.SensitivityResult, error) {
	return p.estimator.Sensitivity(req, names, delta)
}

// MonteCarlo evaluates a stochastic model across seeds (see
// estimator.MonteCarlo).
func (p *Prophet) MonteCarlo(req Request, runs int) (*estimator.MonteCarloResult, error) {
	return p.estimator.MonteCarlo(req, runs)
}

// Gantt renders a trace as an ASCII timeline.
func (p *Prophet) Gantt(tr *trace.Trace, width int) string {
	return trace.Gantt(tr, width)
}

// Pipeline is a convenience that mirrors the end-to-end flow of Figure 2
// in one call: load a model from XML, check it, emit its C++
// representation, evaluate it, and write the trace file.
type PipelineResult struct {
	Model    *uml.Model
	Report   *checker.Report
	Cpp      string
	Estimate *Estimate
}

// RunPipeline executes load -> check -> transform -> estimate.
func (p *Prophet) RunPipeline(modelPath, tracePath string, params SystemParams, globals map[string]float64) (*PipelineResult, error) {
	m, err := p.LoadModel(modelPath)
	if err != nil {
		return nil, err
	}
	rep := p.Check(m)
	if rep.HasErrors() {
		return &PipelineResult{Model: m, Report: rep},
			fmt.Errorf("core: model %q failed checking with %d error(s)", m.Name(), rep.Count(checker.Error))
	}
	cpp, err := p.TransformCpp(m)
	if err != nil {
		return nil, err
	}
	est, err := p.Estimate(Request{Model: m, Params: params, Globals: globals, TracePath: tracePath})
	if err != nil {
		return nil, err
	}
	return &PipelineResult{Model: m, Report: rep, Cpp: cpp, Estimate: est}, nil
}
