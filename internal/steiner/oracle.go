package steiner

import (
	"math"

	"bonnroute/internal/grid"
	"bonnroute/internal/heapq"
)

// Oracle is a reusable Path Composition solver. The resource sharing
// algorithm calls the oracle once per net per phase (§2.3), so per-call
// allocations matter; Oracle keeps versioned work arrays sized to the
// graph and reuses them across calls — including all of Tree's per-call
// scratch (the terminal union-find, merged component lists, the grown
// group and the result buffer), so a steady-state call allocates only
// the returned edge slice. An Oracle is not safe for concurrent use —
// the parallel resource sharing solver gives each worker goroutine its
// own.
type Oracle struct {
	g *grid.Graph

	dist             []float64
	parentV, parentE []int32
	done             []bool
	ver              []int32
	cur              int32

	comp    []int32
	compVer []int32
	compCur int32

	// pq is the Dijkstra queue keyed by distance. Tie is the vertex id:
	// ties break on it, so pop order — and with it every tree — is
	// deterministic.
	pq heapq.Heap[float64, struct{}]

	// Tree scratch, reused across calls (sized to the terminal count).
	par       []int32 // terminal union-find parents
	rootDense []int32 // union-find root -> dense merged component id
	merged    [][]int // merged terminal components (backing reused)
	reached   []bool  // per merged component: absorbed into the group yet
	group     []int   // the grown vertex set K of Algorithm 1
	treeBuf   []int   // result accumulation buffer
}

// NewOracle creates an oracle for g.
func NewOracle(g *grid.Graph) *Oracle {
	n := g.NumVertices()
	return &Oracle{
		g:       g,
		dist:    make([]float64, n),
		parentV: make([]int32, n),
		parentE: make([]int32, n),
		done:    make([]bool, n),
		ver:     make([]int32, n),
		comp:    make([]int32, n),
		compVer: make([]int32, n),
	}
}

// nextEpoch advances an epoch counter used with an equality-compared
// stamp array. On int32 wraparound the stamp array is hard-cleared and
// the counter restarted, so a stale stamp from 2³¹ calls ago can never
// masquerade as current — a real hazard for oracles owned by a
// long-lived routing daemon, where silent aliasing would surface as
// corrupt dist/parent/component state and plausible-looking wrong
// trees.
func nextEpoch(cur *int32, stamps []int32) int32 {
	if *cur == math.MaxInt32 {
		for i := range stamps {
			stamps[i] = 0
		}
		*cur = 0
	}
	*cur++
	return *cur
}

func (o *Oracle) compOf(v int) int32 {
	if o.compVer[v] != o.compCur {
		return -1
	}
	return o.comp[v]
}

func (o *Oracle) setComp(v int, c int32) {
	o.comp[v] = c
	o.compVer[v] = o.compCur
}

// mergeTerminals collapses terminal groups that share a vertex (pins in
// the same tile) into merged components with dense ids, marking every
// member vertex with its component id under a fresh comp epoch. The
// returned slice is oracle-owned scratch, valid until the next call.
func (o *Oracle) mergeTerminals(terminals [][]int) [][]int {
	nextEpoch(&o.compCur, o.compVer)
	if cap(o.par) < len(terminals) {
		o.par = make([]int32, len(terminals))
		o.rootDense = make([]int32, len(terminals))
	}
	par := o.par[:len(terminals)]
	for i := range par {
		par[i] = int32(i)
	}
	tfind := func(x int32) int32 {
		for par[x] != x {
			par[x] = par[par[x]]
			x = par[x]
		}
		return x
	}
	for ti, vs := range terminals {
		for _, v := range vs {
			if c := o.compOf(v); c >= 0 {
				par[tfind(int32(ti))] = tfind(c)
			} else {
				o.setComp(v, int32(ti))
			}
		}
	}
	// Rebuild merged components with dense ids.
	rootDense := o.rootDense[:len(terminals)]
	for i := range rootDense {
		rootDense[i] = -1
	}
	merged := o.merged[:0]
	for ti, vs := range terminals {
		r := tfind(int32(ti))
		id := rootDense[r]
		if id < 0 {
			id = int32(len(merged))
			rootDense[r] = id
			if len(merged) < cap(merged) {
				merged = merged[:len(merged)+1]
				merged[id] = merged[id][:0]
			} else {
				merged = append(merged, nil)
			}
		}
		merged[id] = append(merged[id], vs...)
	}
	o.merged = merged
	nextEpoch(&o.compCur, o.compVer)
	for ci, vs := range merged {
		for _, v := range vs {
			o.setComp(v, int32(ci))
		}
	}
	return merged
}

// Tree runs Algorithm 1 under the given edge costs: starting from the
// terminal components, repeatedly connect the grown component to the
// nearest other component by a minimum-cost path (paper Algorithm 1,
// guarantee 2−2/|W|). Each terminal is a set of vertex ids joined at
// zero cost (the clique K(V_p) of §2.1). cost(e) must be ≥ 0; a negative
// cost marks the edge unusable. ok is false when the terminals are not
// connected under finite costs.
func (o *Oracle) Tree(cost func(e int) float64, terminals [][]int) (edges []int, ok bool) {
	if len(terminals) <= 1 {
		return nil, true
	}
	merged := o.mergeTerminals(terminals)
	if len(merged) <= 1 {
		return nil, true
	}

	if cap(o.reached) < len(merged) {
		o.reached = make([]bool, len(merged))
	}
	reached := o.reached[:len(merged)]
	for i := range reached {
		reached[i] = false
	}
	reached[0] = true

	// group is the vertex set K of Algorithm 1 (grown from terminal 0).
	group := append(o.group[:0], merged[0]...)

	treeEdges := o.treeBuf[:0]
	for remaining := len(merged) - 1; remaining > 0; remaining-- {
		last, ok := o.dijkstra(cost, group, reached)
		if !ok {
			o.group, o.treeBuf = group, treeEdges
			return nil, false
		}
		// Absorb the reached component and the path.
		ci := int(o.compOf(last))
		reached[ci] = true
		group = append(group, merged[ci]...)
		for v := int32(last); ; {
			group = append(group, int(v))
			pv := o.parentV[v]
			if pv < 0 {
				break
			}
			treeEdges = append(treeEdges, int(o.parentE[v]))
			v = pv
		}
	}
	o.group, o.treeBuf = group, treeEdges
	// The scratch buffer is reused on the next call; hand the caller a
	// copy it can keep.
	return append([]int(nil), treeEdges...), true
}

// dijkstra searches from the group vertices to the nearest vertex of a
// not-yet-reached component; returns that vertex.
func (o *Oracle) dijkstra(cost func(e int) float64, group []int, reached []bool) (int, bool) {
	nextEpoch(&o.cur, o.ver)
	o.pq = o.pq[:0]
	touch := func(v int) {
		if o.ver[v] != o.cur {
			o.ver[v] = o.cur
			o.dist[v] = inf64
			o.done[v] = false
			o.parentV[v] = -1
		}
	}
	for _, v := range group {
		touch(v)
		if o.dist[v] != 0 {
			o.dist[v] = 0
			o.pq.Push(heapq.Item[float64, struct{}]{Key: 0, Tie: int64(v)})
		}
	}
	for len(o.pq) > 0 {
		it := o.pq.Pop()
		v := int(it.Tie)
		if o.done[v] || it.Key > o.dist[v] {
			continue
		}
		o.done[v] = true
		if c := o.compOf(v); c >= 0 && !reached[c] {
			return v, true
		}
		o.g.Neighbors(v, func(e, w int) {
			c := cost(e)
			if c < 0 {
				return
			}
			touch(w)
			if o.done[w] {
				return
			}
			nd := it.Key + c
			if nd < o.dist[w] {
				o.dist[w] = nd
				o.parentV[w] = int32(v)
				o.parentE[w] = int32(e)
				o.pq.Push(heapq.Item[float64, struct{}]{Key: nd, Tie: int64(w)})
			}
		})
	}
	return -1, false
}

const inf64 = 1e30
