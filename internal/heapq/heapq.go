// Package heapq is the one priority queue behind every Dijkstra in the
// router: the blockage-grid search, the path search's heap queue, the
// coarse-grid future cost and both Steiner oracles.
//
// Entries are keyed rather than compared through a method: an Item is
// ordered by (Key, Tie), and the comparison compiles to direct field
// compares, so the generic heap runs as fast as the typed copies it
// replaced. Each caller encodes its own tie-break into Tie (a vertex id,
// a negated insertion counter, or zero for key-only order), which keeps
// every pop sequence — and so every routing result — deterministic.
package heapq

import "cmp"

// Item is one queue entry: ordered by Key, then by Tie; Val is payload
// and never compared.
type Item[K cmp.Ordered, V any] struct {
	Key K
	Tie int64
	Val V
}

// Less orders items by (Key, Tie).
func (a Item[K, V]) Less(b Item[K, V]) bool {
	return a.Key < b.Key || (a.Key == b.Key && a.Tie < b.Tie)
}

// Heap is a binary min-heap of items. The zero value is empty; reuse one
// across searches with h = h[:0] to keep its backing array. The sift
// order is container/heap's: an item moves only past a strictly greater
// one, and pop prefers the left child on ties, so equal items pop in the
// same order as they would there. Both sifts carry the moving item in a
// hole instead of swapping it level by level, which gives the same
// layout as a swapping sift with half the writes.
type Heap[K cmp.Ordered, V any] []Item[K, V]

// Push adds an item.
func (h *Heap[K, V]) Push(it Item[K, V]) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.Less(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
}

// Pop removes and returns the least item. The heap must not be empty.
func (h *Heap[K, V]) Pop() Item[K, V] {
	s := *h
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].Less(s[l]) {
			m = r
		}
		if !s[m].Less(x) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = x
	return top
}
