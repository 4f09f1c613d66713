package estimator

import (
	"fmt"
	"sync"

	"prophet/internal/interp"
	"prophet/internal/lower"
	"prophet/internal/uml"
)

// Backend selects the execution engine a simulation runs on.
type Backend int

const (
	// BackendAuto picks the best available backend (currently lowered).
	BackendAuto Backend = iota
	// BackendInterp forces the tree-walking interpreter.
	BackendInterp
	// BackendLowered forces the flat lowered program (see internal/lower).
	BackendLowered
)

// effective resolves Auto to the backend actually used.
func (b Backend) effective() Backend {
	if b == BackendAuto {
		return BackendLowered
	}
	return b
}

func (b Backend) String() string {
	switch b.effective() {
	case BackendInterp:
		return "interp"
	default:
		return "lowered"
	}
}

// ParseBackend maps the external knob value to a Backend. The empty
// string and "auto" select the default.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "interp":
		return BackendInterp, nil
	case "lowered":
		return BackendLowered, nil
	}
	return BackendAuto, fmt.Errorf("estimator: unknown backend %q (want auto, interp or lowered)", s)
}

// Compiled is the one record of a model: the model itself, its checked
// interp program (check and compile run together, at most once), and its
// lowered program (built on the first lowered run, at most once). The
// preparation keeps its error too — for a model that fails checking, a
// CheckError carrying the report — so such a model is checked once
// however often it is evaluated. A record is safe for
// concurrent use; whoever keeps it (prophetd's model store, or a caller
// passing it in Request.Compiled) keeps every derived artifact with it.
type Compiled struct {
	model *uml.Model

	prepOnce sync.Once
	prog     *interp.Program
	err      error

	lowOnce sync.Once
	low     *lower.Program
}

// NewRecord returns an unprepared record of m. The estimator that first
// evaluates it (or Prepare) checks and compiles m; m must not change
// after that.
func NewRecord(m *uml.Model) *Compiled { return &Compiled{model: m} }

// Model returns the model the record was made for.
func (c *Compiled) Model() *uml.Model { return c.model }

// lowerProgram lowers a compiled program; tests substitute it to watch
// every lowering.
var lowerProgram = lower.Lower

// lowered returns c's lowered program; built reports whether this call
// lowered it.
func (c *Compiled) lowered() (lp *lower.Program, built bool) {
	c.lowOnce.Do(func() {
		c.low = lowerProgram(c.prog)
		built = true
	})
	return c.low, built
}
