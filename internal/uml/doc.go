// Package uml implements the subset of the UML 2.0 metamodel that the
// Performance Prophet methodology relies on: models, activity diagrams,
// activity nodes and edges, and the UML extension mechanisms (stereotypes,
// tagged values and constraints) described in Section 2.1 of the paper.
//
// The metamodel is deliberately small: the paper models scientific
// imperative programs with one or more activity diagrams whose nodes carry
// performance-relevant annotations. Every element of the model is part of a
// single ownership tree (Model -> Diagram -> Node/Edge), which is what the
// Model Traverser walks during transformation (paper, Figure 6).
//
// Elements are identified by string IDs that are unique within a model.
// Tagged values are stored as strings, mirroring the way UML tools persist
// metaattributes; typed accessors are provided for the common cases.
//
// Every change to a model goes through a method, so a model knows when it
// changes. What readers derive from it (each diagram's flow graph and
// region tree, and artifacts other packages key through Model.Memo, such
// as the checker's report) is built once per state of the model, shared
// by concurrent readers, and dropped whole by the next mutation.
// Concurrent readers are safe; a mutation concurrent with anything else is
// not.
package uml
