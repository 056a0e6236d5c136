package heapq

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap reference with the same (Key, Tie)
// order as Heap.
type refHeap []Item[int, int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].Less(h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Item[int, int])) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMatchesContainerHeap drives Heap and container/heap through the
// same random push/pop sequences and requires identical pop sequences,
// payloads included. Keys and ties come from tiny ranges, so most
// entries compare equal and only matching sift loops pop equal entries
// in the same order.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys, ties := 1+rng.Intn(6), 1+rng.Intn(3)
		var h Heap[int, int]
		var ref refHeap
		pops := 0
		for op := 0; op < 4000; op++ {
			if len(h) != ref.Len() {
				t.Fatalf("seed %d op %d: len %d, reference %d", seed, op, len(h), ref.Len())
			}
			if len(h) > 0 && rng.Intn(5) < 2 {
				got, want := h.Pop(), heap.Pop(&ref).(Item[int, int])
				if got != want {
					t.Fatalf("seed %d pop %d: got %+v, reference %+v", seed, pops, got, want)
				}
				pops++
				continue
			}
			it := Item[int, int]{Key: rng.Intn(keys), Tie: int64(rng.Intn(ties)), Val: op}
			h.Push(it)
			heap.Push(&ref, it)
		}
		for len(h) > 0 {
			if got, want := h.Pop(), heap.Pop(&ref).(Item[int, int]); got != want {
				t.Fatalf("seed %d drain: got %+v, reference %+v", seed, got, want)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference holds %d items after the heap drained", seed, ref.Len())
		}
	}
}

// TestSteadyStateAllocs pins the reason the router's searches share
// this heap: once its backing array has grown, a search's pushes and
// pops allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	var h Heap[int, int32]
	run := func() {
		h = h[:0]
		for i := 0; i < 512; i++ {
			h.Push(Item[int, int32]{Key: (i * 7919) % 257, Val: int32(i)})
			if i%3 == 0 {
				h.Pop()
			}
		}
		for len(h) > 0 {
			h.Pop()
		}
	}
	run()
	if got := testing.AllocsPerRun(50, run); got != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per run, want 0", got)
	}
}
