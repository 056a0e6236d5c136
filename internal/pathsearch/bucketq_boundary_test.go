package pathsearch

import (
	"math/rand"
	"testing"

	"bonnroute/internal/heapq"
)

// runQueueSequence drives a bucketQueue and a reference (key, seq) heap
// through the same randomized push/pop interleaving and requires
// identical pop sequences. maxStep is the largest key increase a push
// may use relative to the last popped key — pinned at the bucket-window
// boundary by the callers, so pushes land exactly on the last in-window
// key (cur+8191), exactly one past it (cur+8192, must overflow), and
// beyond.
func runQueueSequence(t *testing.T, maxStep int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var bq bucketQueue
	bq.reset()
	var ref heapq.Heap[int, pqRef]
	seq := int32(0)
	frontier := 0 // key of the last popped item

	push := func(key int) {
		if key < 0 {
			key = 0
		}
		it := newPQItem(key, seq, seq, int8(rng.Intn(3)-1))
		seq++
		bq.push(it)
		ref.Push(it)
	}
	popBoth := func() {
		got, ok := bq.pop()
		if !ok {
			t.Fatal("bucket queue empty while reference heap is not")
		}
		want := ref.Pop()
		if got != want {
			t.Fatalf("maxStep=%d: pop order diverged: bucket %+v, heap %+v", maxStep, got, want)
		}
		frontier = got.Key
	}

	push(rng.Intn(100))
	for op := 0; op < 5000; op++ {
		if rng.Intn(3) != 0 && !bq.empty() {
			popBoth()
			continue
		}
		delta := rng.Intn(maxStep + 1)
		switch rng.Intn(8) {
		case 0:
			delta = maxStep // exact boundary step
		case 1:
			delta = -rng.Intn(50) // key decrease (locally-infeasible π_P)
		}
		push(frontier + delta)
	}
	for !bq.empty() {
		popBoth()
	}
	if len(ref) != 0 {
		t.Fatalf("reference heap holds %d items after bucket queue drained", len(ref))
	}
}

// TestBucketQueueWindowBoundary pins the queue equivalence at the exact
// bucket-window edge: max key steps of 8191 (last in-window offset),
// 8192 (the window size — first key that must overflow), and 8193.
func TestBucketQueueWindowBoundary(t *testing.T) {
	if bucketWindow != 8192 {
		t.Fatalf("test assumes bucketWindow = 8192, got %d", bucketWindow)
	}
	for _, maxStep := range []int{bucketWindow - 1, bucketWindow, bucketWindow + 1} {
		for seed := int64(1); seed <= 4; seed++ {
			runQueueSequence(t, maxStep, seed)
		}
	}
}

// TestBucketGateBoundaryEquivalence straddles the beginSearch gate
// (useBuckets requires maxKeyStep < bucketWindow): GammaVia of 4093,
// 4094 and 4095 give maxKeyStep 2·γ+4 = 8190, 8192 and 8194 — the last
// value below the window, the first at it, and one past. Whichever side
// of the gate a config lands on, forcing the heap must not change the
// found path or the search effort.
func TestBucketGateBoundaryEquivalence(t *testing.T) {
	for _, gamma := range []int{4093, 4094, 4095} {
		_, cfg, S, T := blockedWorld()
		for v := range cfg.Costs.GammaVia {
			cfg.Costs.GammaVia[v] = gamma
		}
		e := NewEngine()
		if step := e.maxKeyStep(cfg); step != 2*gamma+4 {
			t.Fatalf("γ=%d: maxKeyStep = %d, want %d (via cost must dominate)", gamma, step, 2*gamma+4)
		}
		def := e.Search(cfg, S, T)
		if def == nil {
			t.Fatalf("γ=%d: no path", gamma)
		}
		heapCfg := *cfg
		heapCfg.ForceHeapQueue = true
		forced := e.Search(&heapCfg, S, T)
		if !pathsEqual(def, forced) {
			t.Fatalf("γ=%d (maxKeyStep %d): default and forced-heap paths differ:\n  default %v cost %d\n  heap    %v cost %d",
				gamma, 2*gamma+4, def.Points, def.Cost, forced.Points, forced.Cost)
		}
		if def.Stats.HeapPops != forced.Stats.HeapPops || def.Stats.Labels != forced.Stats.Labels {
			t.Fatalf("γ=%d: effort differs: %+v vs %+v", gamma, def.Stats, forced.Stats)
		}
	}
}
