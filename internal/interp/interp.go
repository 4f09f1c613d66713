// Package interp executes a performance model by simulation: it implements
// the Workload Elements of the Performance Estimator (paper, Figure 2) and
// plays exactly the role of the generated C++ running on the CSIM engine.
//
// The correspondence to the generated code is one-to-one:
//
//   - each model process is one simulation process that executes the main
//     diagram's flow, like the generated model_program(uid, pid, tid)
//   - an <<action+>> element's execute() charges its cost-function value
//     to the machine model (Compute on the node's processors)
//   - the code fragment associated with an element runs before its
//     execute() call; assignment statements (`GV = 10;`) take effect on
//     the model variables, so branch guards see them, exactly as the
//     inlined fragment of the generated C++ would behave
//   - decision nodes evaluate their guards in order and follow the first
//     true branch (the generated if/else-if chain)
//   - <<loop+>> elements repeat their body diagram, <<activity+>> elements
//     nest theirs, fork/join and <<omp_parallel>> regions spawn parallel
//     simulation processes, and the MPI stereotypes map onto the machine
//     model's messaging primitives
//
// Compile validates and pre-compiles every expression once; Run is then
// cheap to invoke for parameter sweeps.
package interp

import (
	"context"
	"fmt"
	"strings"

	"prophet/internal/expr"
	"prophet/internal/machine"
	"prophet/internal/profile"
	"prophet/internal/sim"
	"prophet/internal/trace"
	"prophet/internal/uml"
)

// Program is a compiled, executable performance model.
type Program struct {
	model      *uml.Model
	registry   *profile.Registry
	lib        *expr.Library
	guards     map[string]*expr.Compiled            // edge ID -> guard
	costs      map[string]*expr.Compiled            // node ID -> cost expression
	counts     map[string]*expr.Compiled            // loop node ID -> count
	distCosts  map[string]*expr.Dist                // node ID -> stochastic cost
	distCounts map[string]*expr.Dist                // loop node ID -> stochastic count
	tags       map[string]map[string]*expr.Compiled // node ID -> tag -> expr
	code       map[string][]Assignment              // node ID -> effective statements
	inits      map[string]*expr.Compiled            // variable name -> initializer
}

// Compile prepares a model for simulation. The model should already have
// passed the checker; Compile reports expression-level problems it finds
// while lowering.
func Compile(m *uml.Model, reg *profile.Registry) (*Program, error) {
	if reg == nil {
		reg = profile.NewRegistry()
	}
	pr := &Program{
		model:      m,
		registry:   reg,
		guards:     map[string]*expr.Compiled{},
		costs:      map[string]*expr.Compiled{},
		counts:     map[string]*expr.Compiled{},
		distCosts:  map[string]*expr.Dist{},
		distCounts: map[string]*expr.Dist{},
		tags:       map[string]map[string]*expr.Compiled{},
		code:       map[string][]Assignment{},
		inits:      map[string]*expr.Compiled{},
	}

	defs := make([]expr.Def, 0, len(m.Functions()))
	for _, f := range m.Functions() {
		d := expr.Def{Name: f.Name, Body: f.Body}
		for _, p := range f.Params {
			d.Params = append(d.Params, p.Name)
		}
		defs = append(defs, d)
	}
	lib, err := expr.NewLibrary(defs)
	if err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	pr.lib = lib

	// Models repeat the same handful of guard/cost/count strings across
	// thousands of elements; compile each distinct source once. Compiled
	// expressions are immutable, so sharing one instance is safe.
	cache := map[string]*expr.Compiled{}
	compileSrc := func(src string) (*expr.Compiled, error) {
		if c, ok := cache[src]; ok {
			return c, nil
		}
		c, err := expr.CompileStringFolded(src)
		if err != nil {
			return nil, err
		}
		cache[src] = c
		return c, nil
	}

	// parseDist recognizes a cost/count source as a distribution literal
	// (whole-source exp/normal/uniform/empirical call). A model-defined
	// function of the same name shadows the distribution reading, so
	// existing models keep their deterministic semantics (NewLibrary above
	// already rejected any model function named after a builtin like exp).
	distCache := map[string]*expr.Dist{}
	parseDist := func(src string) (*expr.Dist, bool) {
		if d, ok := distCache[src]; ok {
			return d, d != nil
		}
		d, ok := expr.ParseDist(src)
		if ok {
			if _, defined := m.Function(d.Kind.String()); defined {
				d, ok = nil, false
			}
		}
		distCache[src] = d
		return d, ok
	}

	for _, v := range m.Variables() {
		if v.Init == "" {
			continue
		}
		c, err := compileSrc(v.Init)
		if err != nil {
			return nil, fmt.Errorf("interp: variable %s initializer: %w", v.Name, err)
		}
		pr.inits[v.Name] = c
	}

	compileTag := func(n uml.Node, tag string, required bool) error {
		raw, ok := n.Tag(tag)
		if !ok {
			if required {
				return fmt.Errorf("interp: element %q: required tag %q unset", n.Name(), tag)
			}
			return nil
		}
		c, err := compileSrc(raw)
		if err != nil {
			return fmt.Errorf("interp: element %q tag %q: %w", n.Name(), tag, err)
		}
		if pr.tags[n.ID()] == nil {
			pr.tags[n.ID()] = map[string]*expr.Compiled{}
		}
		pr.tags[n.ID()][tag] = c
		return nil
	}

	for _, d := range m.Diagrams() {
		for _, e := range d.Edges() {
			if e.Guard() == "" || e.IsElse() {
				continue
			}
			c, err := compileSrc(e.Guard())
			if err != nil {
				return nil, fmt.Errorf("interp: guard %q: %w", e.Guard(), err)
			}
			pr.guards[e.ID()] = c
		}
		for _, n := range d.Nodes() {
			switch x := n.(type) {
			case *uml.ActionNode:
				if src := costSource(x.CostFunc(), x); src != "" {
					if d, ok := parseDist(src); ok {
						pr.distCosts[x.ID()] = d
					} else {
						c, err := compileSrc(src)
						if err != nil {
							return nil, fmt.Errorf("interp: element %q cost: %w", x.Name(), err)
						}
						pr.costs[x.ID()] = c
					}
				}
				pr.code[x.ID()] = parseAssignments(x.Code())
				switch x.Stereotype() {
				case profile.MPISend:
					if err := compileTag(x, profile.TagDest, true); err != nil {
						return nil, err
					}
					if err := compileTag(x, profile.TagSize, true); err != nil {
						return nil, err
					}
				case profile.MPIRecv:
					if err := compileTag(x, profile.TagSrc, true); err != nil {
						return nil, err
					}
				case profile.MPISendrecv:
					if err := compileTag(x, profile.TagDest, true); err != nil {
						return nil, err
					}
					if err := compileTag(x, profile.TagSrc, true); err != nil {
						return nil, err
					}
					if err := compileTag(x, profile.TagSize, true); err != nil {
						return nil, err
					}
				case profile.MPIBroadcast, profile.MPIReduce:
					if err := compileTag(x, profile.TagRoot, false); err != nil {
						return nil, err
					}
					if err := compileTag(x, profile.TagSize, true); err != nil {
						return nil, err
					}
				}
			case *uml.ActivityNode:
				if src := costSource(x.CostFunc(), x); src != "" {
					if d, ok := parseDist(src); ok {
						pr.distCosts[x.ID()] = d
					} else {
						c, err := compileSrc(src)
						if err != nil {
							return nil, fmt.Errorf("interp: element %q cost: %w", x.Name(), err)
						}
						pr.costs[x.ID()] = c
					}
				}
				pr.code[x.ID()] = parseAssignments(x.Code())
				if x.Stereotype() == profile.OMPParallel {
					if err := compileTag(x, profile.TagCount, false); err != nil {
						return nil, err
					}
				}
				if x.Body() != "" && m.DiagramByName(x.Body()) == nil {
					return nil, fmt.Errorf("interp: activity %q references unknown diagram %q", x.Name(), x.Body())
				}
			case *uml.LoopNode:
				if d, ok := parseDist(x.Count()); ok {
					pr.distCounts[x.ID()] = d
				} else {
					c, err := compileSrc(x.Count())
					if err != nil {
						return nil, fmt.Errorf("interp: loop %q count: %w", x.Name(), err)
					}
					pr.counts[x.ID()] = c
				}
				if m.DiagramByName(x.Body()) == nil {
					return nil, fmt.Errorf("interp: loop %q references unknown diagram %q", x.Name(), x.Body())
				}
			}
		}
	}
	return pr, nil
}

// Model returns the model the program was compiled from.
func (pr *Program) Model() *uml.Model { return pr.model }

// Assignment is one parsed statement of an element's code fragment.
type Assignment struct {
	Name  string
	Value *expr.Compiled
}

// Parts exposes the compiled program's pre-compiled expression tables so
// alternative execution backends (internal/lower) can re-lower them
// without re-parsing the model. The maps are shared, not copied: treat
// them as read-only.
type Parts struct {
	Model      *uml.Model
	Lib        *expr.Library
	Guards     map[string]*expr.Compiled            // edge ID -> guard
	Costs      map[string]*expr.Compiled            // node ID -> cost expression
	Counts     map[string]*expr.Compiled            // loop node ID -> count
	DistCosts  map[string]*expr.Dist                // node ID -> stochastic cost
	DistCounts map[string]*expr.Dist                // loop node ID -> stochastic count
	Tags       map[string]map[string]*expr.Compiled // node ID -> tag -> expr
	Code       map[string][]Assignment              // node ID -> effective statements
	Inits      map[string]*expr.Compiled            // variable name -> initializer
}

// Parts returns the program's compiled constituents.
func (pr *Program) Parts() Parts {
	return Parts{
		Model:      pr.model,
		Lib:        pr.lib,
		Guards:     pr.guards,
		Costs:      pr.costs,
		Counts:     pr.counts,
		DistCosts:  pr.distCosts,
		DistCounts: pr.distCounts,
		Tags:       pr.tags,
		Code:       pr.code,
		Inits:      pr.inits,
	}
}

// Stochastic reports whether the program draws any cost or count from a
// distribution literal (beyond weighted-branch selection).
func (pr *Program) Stochastic() bool {
	return len(pr.distCosts) > 0 || len(pr.distCounts) > 0
}

// costSource picks the expression that models an element's execution
// time: an attached cost function wins; otherwise the `time` tagged value
// (paper, Figure 1b: `time = 10` carries "the estimated or the measured
// execution time").
func costSource(costFunc string, e uml.Element) string {
	if costFunc != "" {
		return costFunc
	}
	if raw, ok := e.Tag(profile.TagTime); ok {
		return raw
	}
	return ""
}

// parseAssignments extracts the executable subset of a code fragment: a
// sequence of `name = expression` statements separated by ';' or
// newlines. Anything else (Fortran snippets, arbitrary C++) is opaque
// documentation: it is carried into the generated C++ verbatim but has no
// effect on the simulation.
func parseAssignments(code string) []Assignment {
	if code == "" {
		return nil
	}
	var out []Assignment
	for _, stmt := range strings.FieldsFunc(code, func(r rune) bool { return r == ';' || r == '\n' }) {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" || strings.HasPrefix(stmt, "//") {
			continue
		}
		eq := strings.IndexByte(stmt, '=')
		if eq <= 0 || eq+1 < len(stmt) && (stmt[eq+1] == '=') || stmt[eq-1] == '!' ||
			stmt[eq-1] == '<' || stmt[eq-1] == '>' {
			continue
		}
		name := strings.TrimSpace(stmt[:eq])
		if !isIdent(name) {
			continue
		}
		c, err := expr.CompileStringFolded(strings.TrimSpace(stmt[eq+1:]))
		if err != nil {
			continue
		}
		out = append(out, Assignment{Name: name, Value: c})
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Config parameterizes one simulation run.
type Config struct {
	// Params are the System Parameters (SP) of the paper's Figure 2.
	Params machine.SystemParams
	// Net parameterizes the interconnect; the zero value means
	// machine.DefaultNet().
	Net *machine.NetParams
	// Globals overrides/provides values for global model variables.
	Globals map[string]float64
	// Policy selects the processor-contention discipline (FCFS default,
	// or processor sharing).
	Policy machine.Policy
	// Seed drives probabilistic (weighted) branch selection; runs with
	// equal seeds are identical. 0 means seed 1.
	Seed int64
	// NoTrace skips trace-event collection: parameter sweeps that only
	// need the makespan run faster and allocate less. Result.Trace is
	// empty (metadata only).
	NoTrace bool
	// MaxSteps bounds the number of element executions per process
	// (0 = 50e6 default), guarding against models that loop forever.
	MaxSteps int
	// RunLimit, when positive, runs the simulation through
	// sim.Engine.RunUntil(RunLimit) instead of sim.Engine.Run: events past
	// the limit stay queued and no deadlock detection happens at the end.
	// Use math.Inf(1) to drain every event through the RunUntil path — the
	// conformance harness asserts that this produces a trace identical to
	// Run's.
	RunLimit float64
	// Context, when non-nil, cancels the run cooperatively: the engine
	// checks for cancellation between simulation events, so a run whose
	// context is cancelled (or whose deadline expires) mid-simulation
	// returns promptly with an error wrapping context.Cause — at event
	// granularity, not only at run boundaries. nil runs to completion.
	Context context.Context
	// Observer, when non-nil, receives the engine's telemetry during the
	// run: process lifecycle events and simulated-time samples of
	// facility utilization, queue lengths, mailbox depths and scheduler
	// pressure.
	Observer sim.Observer
	// SampleInterval is the simulated-time spacing between telemetry
	// samples (0 = sample whenever simulated time advances). Only
	// meaningful when Observer is set.
	SampleInterval float64
}

// Result is the outcome of one run.
type Result struct {
	// Trace is the trace file content (TF of Figure 2).
	Trace *trace.Trace
	// Makespan is the simulated completion time.
	Makespan float64
	// CPUUtilization per node at the end of the run.
	CPUUtilization []float64
	// Globals holds the final values of the global model variables.
	Globals map[string]float64
	// Stats reads the run's statistics on demand, so a run whose
	// statistics nobody publishes builds nothing for them.
	Stats RunStats
}

// RunStats reads a finished run's statistics as sim.Engine reports
// them, with or without an Observer: lifecycle transitions by kind and
// every facility's utilization at the end of the run.
type RunStats interface {
	EventCounts() sim.EventCounts
	FacilityUtilization() map[string]float64
}
