package trace

import (
	"math/bits"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// N appends allocate O(log N) times: a full event slice doubles, where
// append alone would grow a large slice by about a quarter at a time.
func TestAppendGrowsByDoubling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	const n = 1 << 16
	ev := Event{T: 1, Kind: Enter, Elem: "e1", Name: "A"}
	allocs := testing.AllocsPerRun(3, func() {
		var tr Trace
		for i := 0; i < n; i++ {
			tr.Append(ev)
		}
		if len(tr.Events) != n {
			t.Fatalf("%d events, want %d", len(tr.Events), n)
		}
	})
	if limit := float64(bits.Len(n)); allocs > limit {
		t.Errorf("%d appends allocated %v times, want at most %v", n, allocs, limit)
	}
}
