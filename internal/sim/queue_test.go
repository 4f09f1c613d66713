package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refQueue is the container/heap reference the typed eventQueue must
// match pop for pop.
type refQueue []*event

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// TestEventQueueMatchesContainerHeap pushes and pops random (time, seq)
// sets, with tied times and NaN times, through the typed queue and
// through container/heap: both must pop the very same events in the
// same order, so replacing one with the other changes no schedule.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var got eventQueue
		var want refQueue
		seq := uint64(0)
		ops := 1 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			if len(want) > 0 && rng.Intn(3) == 0 {
				g, w := got.pop(), heap.Pop(&want).(*event)
				if g != w {
					t.Fatalf("trial %d op %d: popped (%g, %d), container/heap popped (%g, %d)",
						trial, op, g.time, g.seq, w.time, w.seq)
				}
				continue
			}
			seq++
			ev := &event{time: float64(rng.Intn(8)), seq: seq}
			switch rng.Intn(10) {
			case 0:
				ev.time = math.NaN()
			case 1:
				ev.seq = uint64(rng.Intn(int(seq))) // a tie on seq too
			}
			got.push(ev)
			heap.Push(&want, ev)
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(*event); g != w {
				t.Fatalf("trial %d drain: popped (%g, %d), container/heap popped (%g, %d)",
					trial, g.time, g.seq, w.time, w.seq)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d: %d events left in the typed queue", trial, len(got))
		}
	}
}
