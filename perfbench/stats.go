package main

import (
	"fmt"
	"sort"
)

// tailMinBeyond is how many samples must lie above the reported tail
// percentile: fewer would make the tail one or two unlucky operations.
const tailMinBeyond = 10

// tail is the highest percentile of a latency sample that still has
// tailMinBeyond samples beyond it, with the sample count it came from.
type tail struct {
	Percentile float64 // e.g. 96.7 for the 96.7th percentile
	Value      float64
	N          int // samples the tail was taken from
	Beyond     int // samples strictly above the tail's rank
}

func (t tail) String() string {
	return fmt.Sprintf("p%.2f of n=%d (%d samples beyond)", t.Percentile, t.N, t.Beyond)
}

// tailOf returns the sample with exactly tailMinBeyond samples ranked
// above it: the 100*(1-10/n)th percentile. Choosing the percentile from
// n rather than from a fixed ladder (p90, p99, ...) keeps the reported
// rank continuous in the sample count, so two runs whose op counts
// differ slightly never report different ladder rungs. ok is false when
// there are too few samples for any tail.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return tail{N: n}, false
	}
	s := sorted(xs)
	rank := n - tailMinBeyond // 1-based rank of the reported sample
	return tail{
		Percentile: 100 * float64(rank) / float64(n),
		Value:      s[rank-1],
		N:          n,
		Beyond:     tailMinBeyond,
	}, true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice, like ratio.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the method a reader
// comparing two result sets uses. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := sorted(xs)
	at := func(i int) float64 { // i-th cut point, as statistics.quantiles computes it
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio divides, returning 0 when nothing was counted: a layer that a
// workload never reaches reports 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overhead is how much longer traced ops took than untraced ones, as a
// share of the untraced cost; 0 when either side measured nothing.
func overhead(traced, untraced float64) float64 {
	if traced == 0 || untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// tally counts operations and their failures. An operation fails when
// it returns an error, answers with a non-200 status, or produces an
// output that does not match its reference.
type tally struct {
	attempted int
	failed    int
	firstErr  string
}

// record counts one operation; err == nil means it succeeded.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
}

// fail marks the most recently recorded, successful operation failed:
// a check that runs after the op was counted found a wrong output.
func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

// errorRate is failed over attempted operations.
func (t *tally) errorRate() float64 {
	return ratio(float64(t.failed), float64(t.attempted))
}
