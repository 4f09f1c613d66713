package trace

import (
	"strings"
	"testing"
)

// FuzzRead hardens the trace reader: arbitrary input must never panic,
// any trace it accepts must re-serialize, and Summarize must agree with
// its map-based reference on it.
func FuzzRead(f *testing.F) {
	var sb strings.Builder
	Write(&sb, sampleTrace())
	f.Add(sb.String())
	f.Add("# model: x\n1\t0\t0\tenter\te\tE\n")
	f.Add("not a trace")
	f.Add("")
	f.Add("1\t2\t3\t4\t5\t6\t7\t8")
	f.Add("0\t0\t0\tenter\ta\tA\n0\t0\t0\tenter\tb\tB\n2\t0\t0\tleave\ta\tA\n3\t0\t0\tleave\tb\tB\n1\t3\t0\tmark\tm\tM\n")
	f.Add("0\t0\t1\tenter\ta\tA\n1\t1\t0\tenter\tb\tB\nNaN\t0\t0\tenter\tc\tC\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := Write(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		// Summarize may reject ill-paired traces, but must not panic.
		checkSummarizeMatchesReference(t, tr)
		_ = Gantt(tr, 40)
	})
}
