package pathsearch

import (
	"math/bits"

	"bonnroute/internal/heapq"
)

// pqItem is a priority-queue entry, keyed by the search key. Its Tie is
// the negated global insertion counter seq, so equal keys pop
// newest-first (LIFO) and pop order — and therefore routing output — is
// identical between the bucket queue and the heap fallback, and
// deterministic across runs. LIFO ties finish the most recent
// exploration before revisiting equal-cost alternatives, which measures
// slightly better route quality than FIFO on the benchmark chips.
type pqItem = heapq.Item[int, pqRef]

// pqRef is what an entry refers to: a fresh label (side 0), a sweep
// continuation for one frontier of a label (side ±1), or a node-search
// state (label = state index).
type pqRef struct {
	label int32
	side  int8
}

func newPQItem(key int, seq, label int32, side int8) pqItem {
	return pqItem{Key: key, Tie: -int64(seq), Val: pqRef{label, side}}
}

// bucketWindow is the key window of the Dial queue. It must exceed the
// maximum key increase of a single queue event (≈ 2× the largest edge
// cost); beginSearch verifies this and falls back to the heap otherwise.
const (
	bucketWindow = 1 << 13
	bucketMask   = bucketWindow - 1
)

// bucketQueue is a monotone Dial-style priority queue for integer keys.
// Keys within the active window [cur, cur+bucketWindow) map to one bucket
// each (popped newest-first); an occupancy bitset finds the next nonempty
// bucket.
// Keys outside the window — including keys below the cursor, which a
// locally-infeasible π_P can produce — overflow into a (key, seq) heap
// consulted on every pop, so ordering stays exact, not just approximate.
type bucketQueue struct {
	buckets [bucketWindow][]pqItem
	occ     [bucketWindow / 64]uint64
	cur     int
	n       int // items held in buckets
	started bool
	over    heapq.Heap[int, pqRef]
}

func (q *bucketQueue) reset() {
	for w, bm := range q.occ {
		for bm != 0 {
			b := w*64 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			q.buckets[b] = q.buckets[b][:0]
		}
		q.occ[w] = 0
	}
	q.cur = 0
	q.n = 0
	q.started = false
	q.over = q.over[:0]
}

func (q *bucketQueue) empty() bool { return q.n == 0 && len(q.over) == 0 }

func (q *bucketQueue) push(it pqItem) {
	if !q.started {
		q.started = true
		q.cur = it.Key
	}
	if it.Key < q.cur || it.Key >= q.cur+bucketWindow {
		q.over.Push(it)
		return
	}
	b := it.Key & bucketMask
	q.buckets[b] = append(q.buckets[b], it)
	q.occ[b/64] |= 1 << (b % 64)
	q.n++
}

// nextBucket returns the smallest occupied bucket key ≥ cur, scanning the
// occupancy bitset forward from the cursor with wrap-around. Every stored
// item has key in [cur, cur+bucketWindow), so cyclic distance from the
// cursor bit is exactly key − cur. Caller guarantees n > 0.
func (q *bucketQueue) nextBucket() int {
	start := q.cur & bucketMask
	w, off := start>>6, start&63
	if bm := q.occ[w] >> off; bm != 0 {
		return q.cur + bits.TrailingZeros64(bm)
	}
	for i := 1; i <= len(q.occ); i++ {
		wi := (w + i) & (len(q.occ) - 1)
		if bm := q.occ[wi]; bm != 0 {
			return q.cur + i*64 - off + bits.TrailingZeros64(bm)
		}
	}
	panic("pathsearch: bucket queue occupancy desync")
}

func (q *bucketQueue) pop() (pqItem, bool) {
	if q.empty() {
		return pqItem{}, false
	}
	var bkey = -1
	if q.n > 0 {
		bkey = q.nextBucket()
	}
	// Merge the overflow heap by (key, seq): all in-window items of one
	// key share one bucket and pop newest-first, so comparing the bucket
	// back against the overflow top yields the exact global order.
	if len(q.over) > 0 {
		if q.n == 0 {
			it := q.over.Pop()
			if it.Key > q.cur {
				q.cur = it.Key
			}
			return it, true
		}
		top := q.over[0]
		b := bkey & bucketMask
		front := q.buckets[b][len(q.buckets[b])-1]
		if top.Less(front) {
			it := q.over.Pop()
			if it.Key > q.cur {
				q.cur = it.Key
			}
			return it, true
		}
	}
	b := bkey & bucketMask
	last := len(q.buckets[b]) - 1
	it := q.buckets[b][last]
	q.buckets[b] = q.buckets[b][:last]
	q.n--
	if last == 0 {
		q.occ[b/64] &^= 1 << (b % 64)
	}
	q.cur = it.Key
	return it, true
}

// searchQueue is the queue facade the searches use: the Dial bucket queue
// when edge costs permit (integer keys, bounded step), the binary heap
// otherwise. Both pop in (key asc, seq desc) order, so the choice cannot
// change routing results.
type searchQueue struct {
	useBuckets bool
	bq         *bucketQueue
	hq         heapq.Heap[int, pqRef]
}

func (q *searchQueue) reset(useBuckets bool) {
	q.useBuckets = useBuckets
	q.hq = q.hq[:0]
	if useBuckets {
		if q.bq == nil {
			q.bq = &bucketQueue{}
		}
		q.bq.reset()
	}
}

func (q *searchQueue) push(it pqItem) {
	if q.useBuckets {
		q.bq.push(it)
	} else {
		q.hq.Push(it)
	}
}

func (q *searchQueue) pop() (pqItem, bool) {
	if q.useBuckets {
		return q.bq.pop()
	}
	if len(q.hq) == 0 {
		return pqItem{}, false
	}
	return q.hq.Pop(), true
}

func (q *searchQueue) empty() bool {
	if q.useBuckets {
		return q.bq.empty()
	}
	return len(q.hq) == 0
}
