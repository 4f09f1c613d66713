package checker

import (
	"testing"

	"prophet/internal/builder"
	"prophet/internal/profile"
	"prophet/internal/uml"
)

// A report is kept per registry, registry version and configuration: a
// checker that differs in any of them walks the model again, and one
// that differs in none shares the report.
func TestCheckMemoKeyedByRegistryAndConfig(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("1")
	d.Final()
	d.Chain("initial", "A", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m.Main().NodeByName("A").SetStereotype("custom+")

	reg := profile.NewRegistry()
	c := NewWith(reg, Config{})
	walksOf := func(check func()) int64 {
		w0 := Walks()
		check()
		return Walks() - w0
	}
	var rep *Report
	if n := walksOf(func() { rep = c.Check(m) }); n != 1 || len(rep.ByRule("profile-conformance")) != 1 {
		t.Fatalf("first check: %d walks, %v", n, rep.Diagnostics)
	}
	if n := walksOf(func() { NewWith(reg, Config{}).Check(m) }); n != 0 {
		t.Errorf("a checker with the same registry and config walked %d times, want 0", n)
	}
	off := Config{Disabled: map[string]bool{"profile-conformance": true}}
	if n := walksOf(func() { rep = NewWith(reg, off).Check(m) }); n != 1 || rep.HasErrors() {
		t.Errorf("another config: %d walks, %v", n, rep.Diagnostics)
	}
	if n := walksOf(func() { NewWith(profile.NewRegistry(), Config{}).Check(m) }); n != 1 {
		t.Errorf("another registry walked %d times, want 1", n)
	}

	if err := reg.Register(&profile.Stereotype{Name: "custom+", Base: uml.KindAction}); err != nil {
		t.Fatal(err)
	}
	if n := walksOf(func() { rep = c.Check(m) }); n != 1 || rep.HasErrors() {
		t.Errorf("after a registration: %d walks, %v", n, rep.Diagnostics)
	}
}

// Configurations render canonically: map order does not matter and a
// rule listed as enabled is no rule disabled.
func TestConfigFingerprint(t *testing.T) {
	a := Config{Disabled: map[string]bool{"x": true, "y": true, "z": false}, Severities: map[string]Severity{"r": Error, "q": Info}}
	b := Config{Disabled: map[string]bool{"y": true, "x": true}, Severities: map[string]Severity{"q": Info, "r": Error}}
	if a.fingerprint() != b.fingerprint() {
		t.Errorf("%q != %q", a.fingerprint(), b.fingerprint())
	}
	if (Config{Disabled: map[string]bool{"z": false}}).fingerprint() != (Config{}).fingerprint() {
		t.Error("an enabled-only Disabled map changed the fingerprint")
	}
}

// A model keeps one report: a check under another key replaces it, so
// checkers made afresh for every call (each with its own registry) do not
// pile reports up in a long-lived model's memo.
func TestCheckKeepsOneReportPerModel(t *testing.T) {
	b := builder.New("m")
	d := b.Diagram("main")
	d.Initial()
	d.Action("A").Cost("1")
	d.Final()
	d.Chain("initial", "A", "final")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	first, second := New(), New()
	w0 := Walks()
	first.Check(m)
	first.Check(m)
	second.Check(m)
	first.Check(m)
	if walks := Walks() - w0; walks != 3 {
		t.Errorf("walks = %d, want 3: one per change of checker, none for a repeat", walks)
	}
}
