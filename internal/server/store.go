package server

import (
	"sync"

	"prophet/internal/estimator"
	"prophet/internal/obs"
	"prophet/internal/uml"
)

// modelStore is the content-addressed model store behind POST /v1/models:
// each model is keyed by its canonical-XMI content hash (xmi.Hash) and
// held as its estimator record, so the checked and compiled program and
// its lowering live and die with the stored model. Registration is
// idempotent — re-uploading a model keeps its record — and the store is
// bounded, evicting oldest-first; a client whose model was evicted gets
// 404 and simply re-uploads (the id never changes).
type modelStore struct {
	mu     sync.Mutex
	max    int
	models map[string]*estimator.Compiled
	order  []string // insertion order, for oldest-first eviction
	size   *obs.Gauge
}

func newModelStore(max int, size *obs.Gauge) *modelStore {
	return &modelStore{max: max, models: map[string]*estimator.Compiled{}, size: size}
}

// put registers m under its content address and returns the record
// stored there: the existing one when id is already stored. Models are
// treated as immutable once stored: every reader shares the same record.
func (s *modelStore) put(id string, m *uml.Model) *estimator.Compiled {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.models[id]; ok {
		return c
	}
	c := estimator.NewRecord(m)
	s.models[id] = c
	s.order = append(s.order, id)
	for len(s.order) > s.max {
		delete(s.models, s.order[0])
		s.order = s.order[1:]
	}
	s.size.Set(float64(len(s.models)))
	return c
}

// get returns the record stored under id.
func (s *modelStore) get(id string) (*estimator.Compiled, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.models[id]
	return c, ok
}
