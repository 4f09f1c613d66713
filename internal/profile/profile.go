// Package profile defines the UML extension for performance-oriented
// parallel and distributed programs used by Performance Prophet (paper,
// Section 2.1 and references [17,18]).
//
// A Stereotype is defined as a subclass of an existing UML metaclass with
// associated tag definitions (metaattributes) and constraints. The package
// provides the standard profile — <<action+>>, <<activity+>>, <<loop+>> and
// the message-passing / shared-memory building blocks — plus a registry so
// models can carry additional, user-defined stereotypes, because "the set
// of tag definitions ... can be arbitrarily extended to meet the modeling
// objective" (paper, Section 2.1).
package profile

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"prophet/internal/expr"
	"prophet/internal/uml"
)

// TagType is the declared type of a tag definition.
type TagType int

const (
	// TagString accepts any text.
	TagString TagType = iota
	// TagInteger requires a base-10 integer.
	TagInteger
	// TagDouble requires a floating point number.
	TagDouble
	// TagExpr requires a parsable cost-function expression.
	TagExpr
)

// String returns the UML-style type name (as in Figure 1a: "id : Integer").
func (t TagType) String() string {
	switch t {
	case TagInteger:
		return "Integer"
	case TagDouble:
		return "Double"
	case TagExpr:
		return "Expression"
	default:
		return "String"
	}
}

// TagDef is a tag definition (metaattribute) of a stereotype.
type TagDef struct {
	Name     string
	Type     TagType
	Required bool
	// Default, when non-empty, is applied to the element when the
	// stereotype is applied and the tag is unset.
	Default string
	// Stochastic marks an expression tag whose value may be a
	// distribution literal (exp/normal/uniform/empirical; see
	// expr.ParseDist). Distribution literals anywhere else are a
	// checker error.
	Stochastic bool
}

// Stereotype is a stereotype definition: a named specialization of a UML
// metaclass with tag definitions and constraints.
type Stereotype struct {
	// Name without guillemets, e.g. "action+".
	Name string
	// Base is the metaclass kind the stereotype extends; applying the
	// stereotype to an element of a different kind is an error.
	Base uml.Kind
	// Tags are the tag definitions, in declaration order.
	Tags []TagDef
	// Constraints are informal constraint expressions evaluated over tag
	// values (each tag name is a variable; string tags are not visible).
	Constraints []string
	// Doc is a one-line description used by the CLI's describe output.
	Doc string
}

// TagDef returns the tag definition with the given name.
func (s *Stereotype) TagDef(name string) (TagDef, bool) {
	for _, td := range s.Tags {
		if td.Name == name {
			return td, true
		}
	}
	return TagDef{}, false
}

// Notation renders the stereotype application on an element in the paper's
// Figure 1(b) notation: `<<action+>> {id = 1, type = SAMPLE, time = 10}`.
// Tags are rendered in definition order, then extra tags alphabetically.
func (s *Stereotype) Notation(e uml.Element) string {
	var parts []string
	seen := make(map[string]bool)
	for _, td := range s.Tags {
		if v, ok := e.Tag(td.Name); ok {
			parts = append(parts, fmt.Sprintf("%s = %s", td.Name, v))
			seen[td.Name] = true
		}
	}
	var extra []string
	for _, tv := range e.Tags() {
		if !seen[tv.Name] {
			extra = append(extra, fmt.Sprintf("%s = %s", tv.Name, tv.Value))
		}
	}
	sort.Strings(extra)
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return fmt.Sprintf("<<%s>>", s.Name)
	}
	return fmt.Sprintf("<<%s>> {%s}", s.Name, strings.Join(parts, ", "))
}

// ValidateTags checks an element's tagged values against the stereotype's
// tag definitions and constraints. It returns one error per violation.
func (s *Stereotype) ValidateTags(e uml.Element) []error {
	var errs []error
	// env binds the numeric tags for the constraints; most stereotypes
	// declare none, so it is made only when needed.
	var env *expr.MapEnv
	if len(s.Constraints) > 0 {
		env = expr.NewMapEnv()
	}
	for _, td := range s.Tags {
		raw, ok := e.Tag(td.Name)
		if !ok {
			if td.Required {
				errs = append(errs, fmt.Errorf("element %q: required tag %q of <<%s>> is unset",
					e.Name(), td.Name, s.Name))
			}
			continue
		}
		switch td.Type {
		case TagInteger:
			v, err := strconv.Atoi(raw)
			if err != nil {
				errs = append(errs, fmt.Errorf("element %q: tag %q must be an Integer, got %q",
					e.Name(), td.Name, raw))
				continue
			}
			if env != nil {
				env.Set(td.Name, float64(v))
			}
		case TagDouble:
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				errs = append(errs, fmt.Errorf("element %q: tag %q must be a Double, got %q",
					e.Name(), td.Name, raw))
				continue
			}
			if env != nil {
				env.Set(td.Name, v)
			}
		case TagExpr:
			if _, err := expr.Parse(raw); err != nil {
				errs = append(errs, fmt.Errorf("element %q: tag %q must be an expression: %v",
					e.Name(), td.Name, err))
			}
		}
	}
	for _, c := range s.Constraints {
		v, err := expr.Eval(c, expr.Chain{env, expr.Builtins})
		if err != nil {
			// A constraint over unset/non-numeric tags is not checkable;
			// skip silently, required-tag errors already cover the gap.
			var ue *expr.UndefinedError
			if errors.As(err, &ue) {
				continue
			}
			errs = append(errs, fmt.Errorf("element %q: constraint %q: %v", e.Name(), c, err))
			continue
		}
		if !expr.Truthy(v) {
			errs = append(errs, fmt.Errorf("element %q: constraint %q violated", e.Name(), c))
		}
	}
	return errs
}
