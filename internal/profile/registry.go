package profile

import (
	"fmt"
	"sort"

	"prophet/internal/uml"
)

// Registry holds the stereotype definitions known to a model-processing
// session. It is initialized with the standard performance profile and may
// be extended with user-defined stereotypes.
type Registry struct {
	byName  map[string]*Stereotype
	order   []string
	version uint64
}

// NewRegistry returns a registry pre-loaded with the standard profile.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]*Stereotype)}
	for _, s := range standardProfile() {
		// The standard profile is well-formed by construction.
		if err := r.Register(s); err != nil {
			panic("profile: standard profile: " + err.Error())
		}
	}
	return r
}

// Register adds a stereotype definition. Re-registering an existing name is
// an error.
func (r *Registry) Register(s *Stereotype) error {
	if s.Name == "" {
		return fmt.Errorf("profile: stereotype with empty name")
	}
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("profile: stereotype %q already registered", s.Name)
	}
	r.byName[s.Name] = s
	r.order = append(r.order, s.Name)
	r.version++
	return nil
}

// Version counts the registrations so far: what a registry says about an
// element can change only when it does.
func (r *Registry) Version() uint64 { return r.version }

// Lookup returns the stereotype definition for a name.
func (r *Registry) Lookup(name string) (*Stereotype, bool) {
	s, ok := r.byName[name]
	return s, ok
}

// Names returns all registered stereotype names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Apply applies a stereotype to an element: it checks the element's
// metaclass against the stereotype's base class and fills in tag defaults.
func (r *Registry) Apply(e uml.Element, name string) error {
	s, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("profile: unknown stereotype <<%s>>", name)
	}
	if e.Kind() != s.Base {
		return fmt.Errorf("profile: <<%s>> extends %v, cannot apply to %v element %q",
			name, s.Base, e.Kind(), e.Name())
	}
	e.SetStereotype(name)
	for _, td := range s.Tags {
		if td.Default == "" {
			continue
		}
		if _, set := e.Tag(td.Name); !set {
			e.SetTag(td.Name, td.Default)
		}
	}
	return nil
}

// Validate checks one element's stereotype application (if any) against the
// registry: the stereotype must be known, its base class must match, and
// the tagged values must satisfy the tag definitions and constraints.
func (r *Registry) Validate(e uml.Element) []error {
	name := e.Stereotype()
	if name == "" {
		return nil
	}
	s, ok := r.byName[name]
	if !ok {
		return []error{fmt.Errorf("element %q: unknown stereotype <<%s>>", e.Name(), name)}
	}
	var errs []error
	if e.Kind() != s.Base {
		errs = append(errs, fmt.Errorf("element %q: <<%s>> extends %v but element is %v",
			e.Name(), name, s.Base, e.Kind()))
	}
	errs = append(errs, s.ValidateTags(e)...)
	return errs
}

// PerformanceStereotypes returns the names of the stereotypes that mark
// performance-relevant modeling elements, i.e. the selection set of the
// transformation algorithm's first phase (paper, Figure 5 lines 1-8).
func (r *Registry) PerformanceStereotypes() []string {
	var out []string
	for _, name := range r.order {
		s := r.byName[name]
		if s.Base == uml.KindAction || s.Base == uml.KindActivity || s.Base == uml.KindLoop {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// IsPerformanceElement reports whether the element carries a stereotype
// that marks it performance-relevant.
func (r *Registry) IsPerformanceElement(e uml.Element) bool {
	name := e.Stereotype()
	if name == "" {
		return false
	}
	s, ok := r.byName[name]
	if !ok {
		return false
	}
	return s.Base == uml.KindAction || s.Base == uml.KindActivity || s.Base == uml.KindLoop
}
