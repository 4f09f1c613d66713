package uml

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// TaggedValue is a UML tagged value: the value of a tag definition attached
// to a stereotyped element (paper, Figure 1: id, type, time).
type TaggedValue struct {
	Name  string
	Value string
}

// Element is the common interface of every modeling element in the tree.
// It corresponds to the paper's notion of "modeling element" whose
// properties the Model Traverser reads while generating representations.
type Element interface {
	// ID returns the element identifier, unique within its model.
	ID() string
	// Name returns the user-visible element name (e.g. "Kernel6").
	Name() string
	// SetName renames the element.
	SetName(string)
	// Kind returns the metaclass kind of the element.
	Kind() Kind
	// Stereotype returns the applied stereotype name without guillemets
	// (e.g. "action+"), or "" when no stereotype is applied.
	Stereotype() string
	// SetStereotype applies a stereotype by name.
	SetStereotype(string)
	// Tag returns the raw tagged value for name.
	Tag(name string) (string, bool)
	// SetTag sets a tagged value.
	SetTag(name, value string)
	// DeleteTag removes a tagged value; it is a no-op if absent.
	DeleteTag(name string)
	// Tags returns all tagged values sorted by name.
	Tags() []TaggedValue
	// Constraints returns the constraint expressions attached to the element.
	Constraints() []string
	// AddConstraint attaches a constraint expression.
	AddConstraint(string)
	// Owner returns the owning element (nil for the model root).
	Owner() Element
}

// base carries the state shared by every element implementation. model
// is the model the element belongs to, nil until it is added to one; every
// mutator reports the change to it (Model.changed).
type base struct {
	id          string
	name        string
	kind        Kind
	stereotype  string
	tags        map[string]string
	constraints []string
	model       *Model
}

func newBase(id, name string, kind Kind) base {
	return base{id: id, name: name, kind: kind}
}

func (b *base) ID() string         { return b.id }
func (b *base) Name() string       { return b.name }
func (b *base) Kind() Kind         { return b.kind }
func (b *base) Stereotype() string { return b.stereotype }

func (b *base) SetName(n string) {
	b.name = n
	b.model.changed()
}

func (b *base) SetStereotype(s string) {
	b.stereotype = s
	b.model.changed()
}

func (b *base) Tag(name string) (string, bool) {
	v, ok := b.tags[name]
	return v, ok
}

func (b *base) SetTag(name, value string) {
	if b.tags == nil {
		b.tags = make(map[string]string)
	}
	b.tags[name] = value
	b.model.changed()
}

func (b *base) DeleteTag(name string) {
	delete(b.tags, name)
	b.model.changed()
}

func (b *base) Tags() []TaggedValue {
	out := make([]TaggedValue, 0, len(b.tags))
	for k, v := range b.tags {
		out = append(out, TaggedValue{Name: k, Value: v})
	}
	slices.SortFunc(out, func(a, b TaggedValue) int { return strings.Compare(a.Name, b.Name) })
	return out
}

func (b *base) Constraints() []string {
	out := make([]string, len(b.constraints))
	copy(out, b.constraints)
	return out
}

func (b *base) AddConstraint(c string) {
	b.constraints = append(b.constraints, c)
	b.model.changed()
}

// Owner of the model root; diagrams, nodes and edges override it.
func (b *base) Owner() Element { return nil }

// TagFloat returns the tagged value for name parsed as float64.
// It returns (0, false) when the tag is absent or not numeric.
func TagFloat(e Element, name string) (float64, bool) {
	raw, ok := e.Tag(name)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// TagInt returns the tagged value for name parsed as int.
func TagInt(e Element, name string) (int, bool) {
	raw, ok := e.Tag(name)
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(raw)
	if err != nil {
		return 0, false
	}
	return i, true
}

// SetTagFloat stores a float64 tagged value using the shortest decimal
// representation that round-trips.
func SetTagFloat(e Element, name string, v float64) {
	e.SetTag(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetTagInt stores an int tagged value.
func SetTagInt(e Element, name string, v int) {
	e.SetTag(name, strconv.Itoa(v))
}

// DisplayName returns the element name decorated with its stereotype in
// guillemet notation, matching the graphical notation of the paper
// (e.g. `Kernel6 <<action+>>`).
func DisplayName(e Element) string {
	if s := e.Stereotype(); s != "" {
		return fmt.Sprintf("%s <<%s>>", e.Name(), s)
	}
	return e.Name()
}
