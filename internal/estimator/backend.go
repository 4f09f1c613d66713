package estimator

import (
	"fmt"
	"sync"

	"prophet/internal/interp"
	"prophet/internal/lower"
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

// Compiled is a checked, compiled model ready for repeated evaluation:
// the interp program plus its lowered program, built on first lowered
// run. A compile-cache entry therefore lowers at most once and drops its
// lowering when evicted; an uncached one (Compile, Estimate) keeps it as
// long as its holder does.
type Compiled struct {
	prog    *interp.Program
	lowOnce sync.Once
	low     *lower.Program
}

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
