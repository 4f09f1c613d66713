package uml

import "sync"

// memo holds everything derived from a model as it stands: each diagram's
// flow graph and region tree, and artifacts other packages derive and key
// (Model.Memo). It is built on first use, shared by concurrent readers,
// and dropped whole by the model's next mutation, so a reader never sees
// an artifact of an earlier state.
type memo struct {
	diagrams []diagramMemo // by Diagram.idx

	mu      sync.Mutex
	entries map[any]*memoEntry
}

// diagramMemo is what is derived from one diagram.
type diagramMemo struct {
	flowOnce   sync.Once
	flow       *flowGraph
	regionOnce sync.Once
	regions    Region
}

type memoEntry struct {
	once sync.Once
	v    any
}

// changed drops the memo. Every mutator of the model or of an element in
// it calls it; a model being built has no memo, so this is one load.
func (m *Model) changed() {
	if m != nil && m.memo.Load() != nil {
		m.memo.Store(nil)
	}
}

// derived returns the model's memo, creating it on first use.
func (m *Model) derived() *memo {
	if p := m.memo.Load(); p != nil {
		return p
	}
	p := &memo{diagrams: make([]diagramMemo, len(m.diagrams))}
	if m.memo.CompareAndSwap(nil, p) {
		return p
	}
	return m.memo.Load()
}

// Memo returns the artifact derived from m under key, calling build on
// first use after the model's last change. Concurrent callers with an
// equal key share one build and one result; key must be comparable and
// should be of a type the caller's package owns. The result is shared:
// callers must not modify it.
func (m *Model) Memo(key any, build func() any) any {
	p := m.derived()
	p.mu.Lock()
	e, ok := p.entries[key]
	if !ok {
		if p.entries == nil {
			p.entries = make(map[any]*memoEntry)
		}
		e = &memoEntry{}
		p.entries[key] = e
	}
	p.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// memo returns the slot of d's derived artifacts.
func (d *Diagram) memo() *diagramMemo { return &d.model.derived().diagrams[d.idx] }
