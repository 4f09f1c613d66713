package testutil

import (
	"math"
	"testing"
)

func TestCloseTimes(t *testing.T) {
	cases := []struct {
		name      string
		got, want float64
		close     bool
	}{
		{"exact", 1.3, 1.3, true},
		{"accumulated error", 0.1 + 0.2, 0.3, true},
		{"relative at scale", 1e6 + 1e-4, 1e6, true},
		{"clearly different", 1.0, 1.1, false},
		{"small absolute slack near zero", 1e-12, 0, true},
		{"zero exact", 0, 0, true},
		{"nan never agrees", math.NaN(), math.NaN(), false},
		{"inf equal", math.Inf(1), math.Inf(1), true},
		{"inf vs finite", math.Inf(1), 1, false},
	}
	for _, c := range cases {
		if got := CloseTimes(c.got, c.want); got != c.close {
			t.Errorf("%s: CloseTimes(%v, %v) = %v, want %v", c.name, c.got, c.want, got, c.close)
		}
	}
}
