package checker

import (
	"strings"
	"testing"

	"prophet/internal/profile"
	"prophet/internal/uml"
)

// TestEveryRuleFires is the rule-regression table: one violating model per
// rule in allRules, asserting that exactly that rule fires with the
// expected severity and message. When a rule regresses, the failure names
// the rule that broke.
func TestEveryRuleFires(t *testing.T) {
	cases := []struct {
		rule     string
		severity Severity
		message  string // required substring of the diagnostic message
		build    func() *uml.Model
	}{
		{
			rule:     "single-initial",
			severity: Error,
			message:  `diagram "main" has no initial node`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				mustAction(t, m, d, "A")
				return m
			},
		},
		{
			rule:     "has-final",
			severity: Error,
			message:  `diagram "main" has no final node`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				a := mustAction(t, m, d, "A")
				d.Connect(ini.ID(), a.ID(), "")
				return m
			},
		},
		{
			rule:     "initial-edges",
			severity: Error,
			message:  "initial node has 2 outgoing edge(s), want 1",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), a.ID(), "")
				d.Connect(ini.ID(), b.ID(), "")
				d.Connect(a.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "final-edges",
			severity: Error,
			message:  "final node has 1 outgoing edge(s)",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				a := mustAction(t, m, d, "A")
				d.Connect(ini.ID(), fin.ID(), "")
				d.Connect(fin.ID(), a.ID(), "")
				return m
			},
		},
		{
			rule:     "decision-guards",
			severity: Error,
			message:  "edge out of decision node has neither guard nor positive weight",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				dec, _ := m.AddControl(d, "", uml.KindDecision)
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), dec.ID(), "")
				d.Connect(dec.ID(), a.ID(), "") // neither guard nor weight
				d.Connect(dec.ID(), b.ID(), "")
				d.Connect(a.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "weights-sum",
			severity: Info,
			message:  "branch weights sum to 0.5, not 1",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				dec, _ := m.AddControl(d, "", uml.KindDecision)
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), dec.ID(), "")
				e1, _ := d.Connect(dec.ID(), a.ID(), "")
				e1.SetWeight(0.3)
				e2, _ := d.Connect(dec.ID(), b.ID(), "")
				e2.SetWeight(0.2)
				d.Connect(a.ID(), fin.ID(), "")
				d.Connect(b.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "single-successor",
			severity: Error,
			message:  "only decision and fork nodes may branch",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), a.ID(), "")
				d.Connect(a.ID(), b.ID(), "")
				d.Connect(a.ID(), fin.ID(), "")
				d.Connect(b.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "fork-join-arity",
			severity: Error,
			message:  "fork node has 1 outgoing edge(s), want >=2",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				fork, _ := m.AddControl(d, "", uml.KindFork)
				a := mustAction(t, m, d, "A")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), fork.ID(), "")
				d.Connect(fork.ID(), a.ID(), "")
				d.Connect(a.ID(), fin.ID(), "")
				return m
			},
		},
		{
			// Branch B can leave through its own final node before the
			// branches meet at J, so J does not close the fork.
			rule:     "fork-closes",
			severity: Error,
			message:  `fork "F" has branches that meet at "J", but not every path from the fork passes through it`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				f, _ := m.AddControl(d, "", uml.KindFork)
				f.SetName("F")
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				dec, _ := m.AddControl(d, "", uml.KindDecision)
				j, _ := m.AddControl(d, "", uml.KindJoin)
				j.SetName("J")
				out, _ := m.AddControl(d, "", uml.KindFinal)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), f.ID(), "")
				d.Connect(f.ID(), a.ID(), "")
				d.Connect(f.ID(), b.ID(), "")
				d.Connect(a.ID(), j.ID(), "")
				d.Connect(b.ID(), dec.ID(), "")
				e1, _ := d.Connect(dec.ID(), out.ID(), "")
				e1.SetWeight(0.5)
				e2, _ := d.Connect(dec.ID(), j.ID(), "")
				e2.SetWeight(0.5)
				d.Connect(j.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "reachable",
			severity: Warning,
			message:  `node "Orphan" is unreachable from the initial node`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				mustAction(t, m, d, "Orphan")
				d.Connect(ini.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "body-exists",
			severity: Error,
			message:  `activity "SA" references unknown diagram "nowhere"`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				act, _ := m.AddActivity(d, "", "SA", "nowhere")
				act.SetStereotype(profile.ActivityPlus)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), act.ID(), "")
				d.Connect(act.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "no-activity-cycles",
			severity: Error,
			message:  `diagram "main" participates in a cyclic activity nesting`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				act, _ := m.AddActivity(d, "", "Self", "main")
				act.SetStereotype(profile.ActivityPlus)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), act.ID(), "")
				d.Connect(act.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "guards-parse",
			severity: Error,
			message:  `guard "((" does not parse`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				dec, _ := m.AddControl(d, "", uml.KindDecision)
				a := mustAction(t, m, d, "A")
				b := mustAction(t, m, d, "B")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), dec.ID(), "")
				d.Connect(dec.ID(), a.ID(), "((")
				d.Connect(dec.ID(), b.ID(), "else")
				d.Connect(a.ID(), fin.ID(), "")
				d.Connect(b.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "cost-functions",
			severity: Error,
			message:  `cost function "Missing()" calls undefined function "Missing"`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				a := mustAction(t, m, d, "A")
				a.SetCostFunc("Missing()")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), a.ID(), "")
				d.Connect(a.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "profile-conformance",
			severity: Error,
			message:  `required tag "dest" of <<mpi_send>> is unset`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				send, _ := m.AddAction(d, "", "S")
				send.SetStereotype(profile.MPISend) // bypasses Apply's defaults
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), send.ID(), "")
				d.Connect(send.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "perf-element-names",
			severity: Error,
			message:  `performance element name "A" already used`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				a := mustAction(t, m, d, "A")
				dup, err := m.AddAction(d, "", "A")
				if err != nil {
					t.Fatal(err)
				}
				dup.SetStereotype(profile.ActionPlus)
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), a.ID(), "")
				d.Connect(a.ID(), dup.ID(), "")
				d.Connect(dup.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "mpi-pairing",
			severity: Warning,
			message:  "1 mpi_recv element(s) but no mpi_send",
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				recv, _ := m.AddAction(d, "", "R")
				recv.SetStereotype(profile.MPIRecv)
				recv.SetTag(profile.TagSrc, "0")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), recv.ID(), "")
				d.Connect(recv.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "stochastic-tags",
			severity: Error,
			message:  `tag "count" of <<omp_parallel>> does not accept a distribution literal "normal(2, 1)"`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				body, _ := m.AddDiagram("body")
				bini, _ := m.AddControl(body, "", uml.KindInitial)
				ba := mustAction(t, m, body, "BA")
				bfin, _ := m.AddControl(body, "", uml.KindFinal)
				body.Connect(bini.ID(), ba.ID(), "")
				body.Connect(ba.ID(), bfin.ID(), "")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				par, _ := m.AddActivity(d, "", "Par", "body")
				par.SetStereotype(profile.OMPParallel)
				// A draw is not a thread count: omp_parallel's count tag is a
				// plain (non-stochastic) expression tag.
				par.SetTag(profile.TagCount, "normal(2, 1)")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), par.ID(), "")
				d.Connect(par.ID(), fin.ID(), "")
				return m
			},
		},
		{
			rule:     "unannotated-actions",
			severity: Info,
			message:  `action "Bare" carries no stereotype`,
			build: func() *uml.Model {
				m := uml.NewModel("m")
				d, _ := m.AddDiagram("main")
				ini, _ := m.AddControl(d, "", uml.KindInitial)
				bare, _ := m.AddAction(d, "", "Bare")
				fin, _ := m.AddControl(d, "", uml.KindFinal)
				d.Connect(ini.ID(), bare.ID(), "")
				d.Connect(bare.ID(), fin.ID(), "")
				return m
			},
		},
	}

	// The table must stay in lockstep with the registry: a new rule needs
	// a new violating model here.
	if len(cases) != len(allRules) {
		t.Errorf("table covers %d rules, registry has %d", len(cases), len(allRules))
		covered := map[string]bool{}
		for _, c := range cases {
			covered[c.rule] = true
		}
		for _, r := range allRules {
			if !covered[r.name] {
				t.Errorf("rule %q has no table case", r.name)
			}
		}
	}

	for _, c := range cases {
		t.Run(c.rule, func(t *testing.T) {
			rep := New().Check(c.build())
			var fired []Diagnostic
			for _, diag := range rep.Diagnostics {
				if diag.Rule == c.rule {
					fired = append(fired, diag)
				}
			}
			if len(fired) == 0 {
				t.Fatalf("rule %q did not fire; got %v", c.rule, rep.Diagnostics)
			}
			found := false
			for _, diag := range fired {
				if diag.Severity != c.severity {
					t.Errorf("rule %q fired with severity %v, want %v", c.rule, diag.Severity, c.severity)
				}
				if strings.Contains(diag.Message, c.message) {
					found = true
				}
			}
			if !found {
				t.Errorf("rule %q fired but no message contains %q; got %v", c.rule, c.message, fired)
			}
		})
	}
}

// mustAction adds an <<action+>> node with a zero-cost function so the
// violating models trip only the rule under test.
func mustAction(t *testing.T, m *uml.Model, d *uml.Diagram, name string) *uml.ActionNode {
	t.Helper()
	a, err := m.AddAction(d, "", name)
	if err != nil {
		t.Fatal(err)
	}
	a.SetStereotype(profile.ActionPlus)
	return a
}
