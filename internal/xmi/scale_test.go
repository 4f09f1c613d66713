package xmi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// manyDoc is a model document with n empty diagrams or n global
// variables.
func manyDoc(n int, elem string) string {
	var sb strings.Builder
	sb.WriteString(`<model name="many">` + "\n")
	for i := 0; i < n; i++ {
		switch elem {
		case "diagram":
			fmt.Fprintf(&sb, "  <diagram id=\"d%d\" name=\"D%d\"></diagram>\n", i+1, i)
		case "variable":
			fmt.Fprintf(&sb, "  <variable name=\"v%d\" type=\"double\"></variable>\n", i)
		}
	}
	sb.WriteString("</model>\n")
	return sb.String()
}

// decodeTime is the mean time of repeated decodes of doc, over at least
// 100 ms, so the collector's cycles and the host's noise average out.
func decodeTime(t *testing.T, doc string) time.Duration {
	t.Helper()
	runtime.GC()
	t0 := time.Now()
	n := 0
	for ; n < 3 || time.Since(t0) < 100*time.Millisecond; n++ {
		if _, err := DecodeString(doc); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(t0) / time.Duration(n)
}

// Building a model from its document is linear in the number of diagrams
// and of variables: a lookup by name that scans what was added before
// makes 8× the elements cost about 64×.
func TestDecodeScalesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratios are not meaningful under the race detector")
	}
	for _, c := range []struct {
		elem string
		n    int
	}{{"diagram", 4000}, {"variable", 4000}} {
		small := decodeTime(t, manyDoc(c.n, c.elem))
		large := decodeTime(t, manyDoc(8*c.n, c.elem))
		ratio := float64(large) / float64(small)
		t.Logf("%ss: %d in %v, %d in %v (%.1f×)", c.elem, c.n, small, 8*c.n, large, ratio)
		if ratio >= 20 {
			t.Errorf("decoding 8× as many %ss took %.1f× as long, want < 20×", c.elem, ratio)
		}
	}
}
