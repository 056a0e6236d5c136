package steiner

import (
	"sort"

	"bonnroute/internal/geom"
	"bonnroute/internal/heapq"
)

// RSMTLength returns the length of a rectilinear Steiner minimum tree of
// the points: exact via Dreyfus–Wagner over the Hanan grid for up to 9
// points (the regime where the paper uses FLUTE's exact tables), and an
// iterated 1-Steiner heuristic beyond. The result is the router-
// independent baseline used for scenic-net classification and Table II.
func RSMTLength(points []geom.Point) int64 {
	points = dedupPoints(points)
	switch len(points) {
	case 0, 1:
		return 0
	case 2:
		return int64(points[0].Dist1(points[1]))
	case 3:
		// For 3 terminals the RSMT is the star through the median point:
		// length = HPWL.
		return hpwl(points)
	}
	if len(points) <= 9 {
		return dreyfusWagner(points)
	}
	return oneSteiner(points)
}

func dedupPoints(points []geom.Point) []geom.Point {
	seen := make(map[geom.Point]bool, len(points))
	out := points[:0:0]
	for _, p := range points {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func hpwl(points []geom.Point) int64 {
	minX, maxX := points[0].X, points[0].X
	minY, maxY := points[0].Y, points[0].Y
	for _, p := range points[1:] {
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
	}
	return int64(maxX-minX) + int64(maxY-minY)
}

// hananGrid returns the Hanan grid nodes and the index of each terminal.
func hananGrid(points []geom.Point) (nodes []geom.Point, xidx map[geom.Point]int) {
	var xs, ys []int
	for _, p := range points {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	sort.Ints(xs)
	sort.Ints(ys)
	xs = dedupSortedInts(xs)
	ys = dedupSortedInts(ys)
	xidx = map[geom.Point]int{}
	for _, y := range ys {
		for _, x := range xs {
			xidx[geom.Pt(x, y)] = len(nodes)
			nodes = append(nodes, geom.Pt(x, y))
		}
	}
	return nodes, xidx
}

func dedupSortedInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// dreyfusWagner computes the exact Steiner minimum tree length on the
// Hanan grid (which contains an optimal RSMT by Hanan's theorem).
func dreyfusWagner(points []geom.Point) int64 {
	nodes, idx := hananGrid(points)
	n := len(nodes)
	// All-pairs shortest paths on the Hanan grid = ℓ1 distance (the grid
	// is complete enough that every rectilinear path exists).
	dist := func(a, b int) int64 { return int64(nodes[a].Dist1(nodes[b])) }

	k := len(points)
	terms := make([]int, k)
	for i, p := range points {
		terms[i] = idx[p]
	}
	// dp[S][v]: minimum tree connecting terminal subset S (of terms[1:])
	// plus node v.
	full := 1 << (k - 1)
	dp := make([][]int64, full)
	const inf = int64(1) << 60
	for S := 1; S < full; S++ {
		dp[S] = make([]int64, n)
		for v := range dp[S] {
			dp[S][v] = inf
		}
		if S&(S-1) == 0 {
			// Singleton subset {t}.
			t := terms[1+bitIndex(S)]
			for v := 0; v < n; v++ {
				dp[S][v] = dist(v, t)
			}
			continue
		}
		// Merge step.
		for sub := (S - 1) & S; sub > 0; sub = (sub - 1) & S {
			rest := S &^ sub
			if sub > rest {
				continue // each split once
			}
			for v := 0; v < n; v++ {
				if c := dp[sub][v] + dp[rest][v]; c < dp[S][v] {
					dp[S][v] = c
				}
			}
		}
		// Dijkstra relaxation over the metric closure (ℓ1 distances).
		relaxMetric(dp[S], nodes)
	}
	return dp[full-1][terms[0]]
}

func bitIndex(s int) int {
	i := 0
	for s > 1 {
		s >>= 1
		i++
	}
	return i
}

// relaxMetric performs the Dijkstra step of Dreyfus–Wagner using the ℓ1
// metric between Hanan nodes.
func relaxMetric(d []int64, nodes []geom.Point) {
	var h heapq.Heap[int64, int] // key: distance; value: node
	for v, dv := range d {
		if dv < int64(1)<<59 {
			h.Push(heapq.Item[int64, int]{Key: dv, Val: v})
		}
	}
	done := make([]bool, len(d))
	for len(h) > 0 {
		it := h.Pop()
		v := it.Val
		if done[v] || it.Key > d[v] {
			continue
		}
		done[v] = true
		for w := range d {
			if done[w] {
				continue
			}
			nd := it.Key + int64(nodes[v].Dist1(nodes[w]))
			if nd < d[w] {
				d[w] = nd
				h.Push(heapq.Item[int64, int]{Key: nd, Val: w})
			}
		}
	}
}

// mstLength is Prim's algorithm on the ℓ1 complete graph.
func mstLength(points []geom.Point) int64 {
	n := len(points)
	if n <= 1 {
		return 0
	}
	inTree := make([]bool, n)
	best := make([]int64, n)
	for i := range best {
		best[i] = int64(1) << 60
	}
	best[0] = 0
	var total int64
	for iter := 0; iter < n; iter++ {
		u := -1
		for v := 0; v < n; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		inTree[u] = true
		total += best[u]
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := int64(points[u].Dist1(points[v])); d < best[v] {
					best[v] = d
				}
			}
		}
	}
	return total
}

// oneSteiner is the iterated 1-Steiner heuristic (Kahng–Robins): add the
// Hanan point that reduces MST length most, until no improvement.
func oneSteiner(points []geom.Point) int64 {
	cur := append([]geom.Point(nil), points...)
	curLen := mstLength(cur)
	// Candidate pool: the Hanan points of the original terminals.
	nodes, _ := hananGrid(points)
	for iter := 0; iter < len(points); iter++ {
		bestLen := curLen
		bestPt := geom.Point{}
		found := false
		for _, h := range nodes {
			l := mstLength(append(cur, h))
			if l < bestLen {
				bestLen = l
				bestPt = h
				found = true
			}
		}
		if !found {
			break
		}
		cur = append(cur, bestPt)
		curLen = bestLen
	}
	return curLen
}
