// Package checker implements Teuta's Model Checker: it verifies that a
// performance model conforms to the UML activity-diagram well-formedness
// rules and to the performance profile before the model is transformed
// (paper, Section 2.2: "The Model Checker is used to verify whether the
// model conforms to the UML specification").
//
// Which rules run, and with what severity, is configured by a Model
// Checking File (MCF) — an XML document, matching the MCF element of the
// paper's Figure 2 architecture. Without an MCF every rule runs at its
// default severity.
package checker

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prophet/internal/expr"
	"prophet/internal/profile"
	"prophet/internal/uml"
)

// Severity grades a diagnostic.
type Severity int

const (
	// Info diagnostics are advisory.
	Info Severity = iota
	// Warning diagnostics indicate likely mistakes that do not block
	// transformation.
	Warning
	// Error diagnostics block transformation.
	Error
)

// String returns "info", "warning" or "error".
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// severityFromString parses a severity name; it reports false for unknown
// names.
func severityFromString(s string) (Severity, bool) {
	switch s {
	case "info":
		return Info, true
	case "warning":
		return Warning, true
	case "error":
		return Error, true
	}
	return Info, false
}

// Diagnostic is one finding of the checker.
type Diagnostic struct {
	Rule     string
	Severity Severity
	// ElementID locates the offending element; empty for model-level
	// findings.
	ElementID string
	Message   string
}

// String renders the diagnostic in compiler style:
// "error [rule-name] element e3: message".
func (d Diagnostic) String() string {
	loc := ""
	if d.ElementID != "" {
		loc = " element " + d.ElementID + ":"
	}
	return fmt.Sprintf("%s [%s]%s %s", d.Severity, d.Rule, loc, d.Message)
}

// Report is the outcome of checking one model.
type Report struct {
	Diagnostics []Diagnostic
}

// HasErrors reports whether any diagnostic is an Error.
func (r *Report) HasErrors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Count returns the number of diagnostics at the given severity.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// ByRule returns the diagnostics produced by one rule.
func (r *Report) ByRule(rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	return out
}

// Checker runs a configured set of rules over models.
type Checker struct {
	registry *profile.Registry
	config   Config
}

// Config selects and grades rules. The zero value means "all rules at
// default severity".
type Config struct {
	// Disabled lists rule names to skip.
	Disabled map[string]bool
	// Severities overrides the default severity per rule name.
	Severities map[string]Severity
}

// New returns a checker using the standard profile registry and default
// configuration.
func New() *Checker {
	return NewWith(profile.NewRegistry(), Config{})
}

// NewWith returns a checker with an explicit profile registry and
// configuration.
func NewWith(reg *profile.Registry, cfg Config) *Checker {
	return &Checker{registry: reg, config: cfg}
}

// Rules returns the names of all known rules, sorted.
func Rules() []string {
	out := make([]string, 0, len(allRules))
	for _, r := range allRules {
		out = append(out, r.name)
	}
	sort.Strings(out)
	return out
}

// RuleDoc returns the one-line documentation of a rule.
func RuleDoc(name string) (string, bool) {
	for _, r := range allRules {
		if r.name == name {
			return r.doc, true
		}
	}
	return "", false
}

// Check runs every enabled rule over the model and returns the combined
// report. Diagnostics appear grouped by rule, in rule registration order.
// The report is kept in the model's memo (uml.Model.Memo) until the model
// next changes, and shared by every checker with the same registry, at the
// same version, and the same configuration; each call returns its own
// copy.
func (c *Checker) Check(m *uml.Model) *Report {
	key := reportKey{reg: c.registry, config: c.config.fingerprint()}
	if c.registry != nil {
		key.version = c.registry.Version()
	}
	slot := m.Memo(reportSlot{}, func() any { return new(keptReport) }).(*keptReport)
	slot.mu.Lock()
	if slot.rep == nil || slot.key != key {
		slot.rep, _ = c.check(m)
		slot.key = key
	}
	rep := slot.rep
	slot.mu.Unlock()
	return &Report{Diagnostics: slices.Clone(rep.Diagnostics)}
}

// reportSlot is the memo key of a model's kept report.
type reportSlot struct{}

// keptReport is a model's one kept report and the key it was made under.
// A check under another key replaces it, so the memo of a long-lived model
// holds one report however many checkers read it; concurrent checks wait
// for one walk.
type keptReport struct {
	mu  sync.Mutex
	key reportKey
	rep *Report
}

// reportKey is everything besides the model that a report depends on.
type reportKey struct {
	reg     *profile.Registry
	version uint64
	config  string
}

// fingerprint renders the configuration canonically; the zero Config
// renders as "".
func (cfg Config) fingerprint() string {
	if len(cfg.Disabled) == 0 && len(cfg.Severities) == 0 {
		return ""
	}
	var parts []string
	for name, off := range cfg.Disabled {
		if off {
			parts = append(parts, "-"+name)
		}
	}
	for name, sev := range cfg.Severities {
		parts = append(parts, name+"="+strconv.Itoa(int(sev)))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// CheckCounted is Check without the memo, plus the number of full model
// traversals the checker performed. The fused rule engine dispatches all
// rules from one walk, so the count is 1 regardless of how many rules are
// enabled; the walk-count test pins that property against regressions
// back to rule-at-a-time re-walking.
func (c *Checker) CheckCounted(m *uml.Model) (*Report, int) {
	return c.check(m)
}

// walks counts the model walks of every checker in the process.
var walks atomic.Int64

// Walks returns how many model walks the checkers in this process have
// made. A Check answered from the model's memo makes none.
func Walks() int64 { return walks.Load() }

// check is the single-walk rule engine. Every enabled rule contributes a
// ruleVisitor; the engine traverses the model exactly once — model, then
// per diagram: diagram, nodes, edges — dispatching each element to every
// interested rule, and finally concatenates the per-rule diagnostic
// buffers in registration order (so reports are byte-identical to the
// historical engine that ran each rule as its own model walk).
func (c *Checker) check(m *uml.Model) (*Report, int) {
	shared := &walkShared{
		known: make(map[string]bool, len(wellKnownVars)+len(m.Variables())),
		exprs: map[string]*parsedExpr{},
	}
	for v := range wellKnownVars {
		shared.known[v] = true
	}
	for _, v := range m.Variables() {
		shared.known[v.Name] = true
	}

	ctxs := make([]*ruleContext, 0, len(allRules))
	var onModel, onFinish []func()
	var onEnter, onLeave []func(*uml.Diagram)
	var onNode []func(*uml.Diagram, uml.Node)
	var onEdge []func(*uml.Diagram, *uml.Edge)
	for _, r := range allRules {
		if c.config.Disabled[r.name] {
			continue
		}
		sev := r.defaultSeverity
		if s, ok := c.config.Severities[r.name]; ok {
			sev = s
		}
		ctx := &ruleContext{
			model:    m,
			registry: c.registry,
			rule:     r.name,
			severity: sev,
			shared:   shared,
		}
		ctxs = append(ctxs, ctx)
		v := r.visit(ctx)
		if v.model != nil {
			mcb := v.model
			onModel = append(onModel, func() { mcb(m) })
		}
		if v.enterDiagram != nil {
			onEnter = append(onEnter, v.enterDiagram)
		}
		if v.node != nil {
			onNode = append(onNode, v.node)
		}
		if v.edge != nil {
			onEdge = append(onEdge, v.edge)
		}
		if v.leaveDiagram != nil {
			onLeave = append(onLeave, v.leaveDiagram)
		}
		if v.finish != nil {
			onFinish = append(onFinish, v.finish)
		}
	}

	walks.Add(1) // the one traversal below; per-rule re-walks would add here
	for _, cb := range onModel {
		cb()
	}
	for _, d := range m.Diagrams() {
		for _, cb := range onEnter {
			cb(d)
		}
		for _, n := range d.Nodes() {
			if lp, ok := n.(*uml.LoopNode); ok && lp.Var() != "" {
				shared.known[lp.Var()] = true
			}
			for _, cb := range onNode {
				cb(d, n)
			}
		}
		for _, e := range d.Edges() {
			for _, cb := range onEdge {
				cb(d, e)
			}
		}
		for _, cb := range onLeave {
			cb(d)
		}
	}
	for _, cb := range onFinish {
		cb()
	}

	rep := &Report{}
	total := 0
	for _, ctx := range ctxs {
		total += len(ctx.diags)
	}
	if total > 0 {
		rep.Diagnostics = make([]Diagnostic, 0, total)
		for _, ctx := range ctxs {
			rep.Diagnostics = append(rep.Diagnostics, ctx.diags...)
		}
	}
	return rep, 1
}

// walkShared is state the engine accumulates once per walk on behalf of
// every rule. known is the legal-variable-name set (declared variables,
// well-known names, and loop variables, which become complete only after
// every node has been visited — rules that need it read it in finish).
// exprs holds every expression source parsed during the walk, so a
// source that many elements share, or that several rules read, is
// parsed once; it lives for one walk, and the report outlives it in the
// model's memo.
type walkShared struct {
	known map[string]bool
	exprs map[string]*parsedExpr
}

// parsedExpr is one expression source as the rules read it: its parse
// result and the names it uses.
type parsedExpr struct {
	err error
	exprNames
	// dist is set when the whole source is a distribution constructor
	// call (expr.DistCall); distName is the constructor and args hold the
	// names each argument uses.
	dist     bool
	distName string
	args     []exprNames
}

// exprNames are the distinct variable and function names an expression
// uses, in first-use order (expr.Vars, expr.Calls).
type exprNames struct {
	vars, calls []string
}

func namesOf(n expr.Node) exprNames {
	return exprNames{vars: expr.Vars(n), calls: expr.Calls(n)}
}

// parse returns the parse of src, parsing it on first use.
func (s *walkShared) parse(src string) *parsedExpr {
	if p, ok := s.exprs[src]; ok {
		return p
	}
	n, err := expr.Parse(src)
	p := &parsedExpr{err: err}
	if err == nil {
		p.exprNames = namesOf(n)
		var args []expr.Node
		if p.distName, args, p.dist = expr.DistCall(n); p.dist {
			p.args = make([]exprNames, len(args))
			for i, a := range args {
				p.args[i] = namesOf(a)
			}
		}
	}
	s.exprs[src] = p
	return p
}

// ruleContext is handed to each rule implementation.
type ruleContext struct {
	model    *uml.Model
	registry *profile.Registry
	rule     string
	severity Severity
	shared   *walkShared
	diags    []Diagnostic
}

// add records a diagnostic against an element (which may be nil).
func (ctx *ruleContext) add(e uml.Element, format string, args ...interface{}) {
	id := ""
	if e != nil {
		id = e.ID()
	}
	ctx.diags = append(ctx.diags, Diagnostic{
		Rule:      ctx.rule,
		Severity:  ctx.severity,
		ElementID: id,
		Message:   fmt.Sprintf(format, args...),
	})
}

// rule couples a name with its fused-visitor factory and default severity.
// visit is called once per Check with the rule's private context and
// returns the callbacks the single-walk engine should dispatch to.
type rule struct {
	name            string
	doc             string
	defaultSeverity Severity
	visit           func(*ruleContext) ruleVisitor
}
