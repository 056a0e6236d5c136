package pathsearch

import (
	"bonnroute/internal/geom"
	"bonnroute/internal/heapq"
)

// FutureCost is the potential function π of the goal-directed search: a
// lower bound on the cost from a vertex to the target set, with π ≡ 0 on
// targets. It must be feasible (reduced costs nonnegative), which both
// implementations guarantee, and 1-Lipschitz along tracks with respect to
// wire cost, which the interval search exploits.
type FutureCost interface {
	At(x, y, z int) int
}

// Costs bundles the edge cost parameters of the track graph (paper
// §4.1): wire cost is ℓ1 length, jogs are scaled by BetaJog per unit, and
// a via between layers z and z+1 costs GammaVia[z].
type Costs struct {
	// BetaJog[z] ≥ 1 is the non-preferred-direction penalty multiplier.
	BetaJog []int
	// GammaVia[v] > 0 is the via cost between wiring layers v and v+1.
	GammaVia []int
}

// UniformCosts builds the usual parameterization: β on every layer, γ per
// via layer.
func UniformCosts(numLayers, beta, gamma int) Costs {
	c := Costs{BetaJog: make([]int, numLayers), GammaVia: make([]int, numLayers-1)}
	for z := range c.BetaJog {
		c.BetaJog[z] = beta
	}
	for v := range c.GammaVia {
		c.GammaVia[v] = gamma
	}
	return c
}

// viaLB computes, per layer, the cheapest via cost to reach any layer
// marked in targetLayers (the lb_via term of π_H, Hetzel 1998).
// targetLayers is indexed by layer; entries beyond its length read false,
// so callers can pass a pooled buffer sized to numLayers.
func viaLB(numLayers int, gamma []int, targetLayers []bool) []int {
	const inf = int(^uint(0) >> 2)
	lb := make([]int, numLayers)
	for z := range lb {
		if z >= len(targetLayers) || !targetLayers[z] {
			lb[z] = inf
		}
	}
	// Two relaxation sweeps (up then down) suffice on a path graph.
	for z := 1; z < numLayers; z++ {
		if lb[z-1]+gamma[z-1] < lb[z] {
			lb[z] = lb[z-1] + gamma[z-1]
		}
	}
	for z := numLayers - 2; z >= 0; z-- {
		if lb[z+1]+gamma[z] < lb[z] {
			lb[z] = lb[z+1] + gamma[z]
		}
	}
	return lb
}

// HFuture is π_H (paper §4.1): lb_wire(x, y) + lb_via(z), where lb_wire
// is the ℓ1 distance to the target rectangles projected to one plane and
// lb_via the minimum via cost to a target layer. Simple and fast; its
// weakness is blindness to blockages.
type HFuture struct {
	rects []geom.Rect
	viaLB []int
}

// NewHFuture builds π_H from the target vertex rectangles. targets maps
// layer → covering rectangles of the target vertices on that layer.
func NewHFuture(numLayers int, costs Costs, targets map[int][]geom.Rect) *HFuture {
	f := &HFuture{}
	tl := make([]bool, numLayers)
	for z, rs := range targets {
		if z >= 0 && z < numLayers {
			tl[z] = true
		}
		f.rects = append(f.rects, rs...)
	}
	f.viaLB = viaLB(numLayers, costs.GammaVia, tl)
	return f
}

// At returns π_H(x, y, z).
func (f *HFuture) At(x, y, z int) int {
	best := int(^uint(0) >> 2)
	p := geom.Pt(x, y)
	for _, r := range f.rects {
		if d := r.Dist1Pt(p); d < best {
			best = d
		}
	}
	if best == int(^uint(0)>>2) {
		return 0
	}
	return best + f.viaLB[z]
}

// futureCache holds the engine's reusable future-cost machinery: the
// last-built HFuture (reused verbatim across rip-up retries of the same
// net, whose target set is unchanged), a memo of via-lower-bound vectors
// keyed by target-layer bitmask (shared across nets whose targets touch
// the same layers, valid while GammaVia is unchanged), a pooled
// target-layer scratch buffer, and the reduced-graph (RFuture) cache.
type futureCache struct {
	gamma   []int
	nl      int
	viaLBs  map[uint64][]int
	lastNet int32
	lastNL  int
	lastPts []geom.Point3
	lastPi  *HFuture
	tl      []bool // pooled target-layer mask handed to viaLB

	// Reduced-graph cache: a small LRU of RFuture structures keyed by
	// net and the full parameter set, so reuse is exact — a cached π is
	// returned only when rebuilding it would produce a bit-identical
	// structure.
	rf      []rfEntry
	rfClock uint64
}

// rfEntry is one cached reduced-graph future cost with everything needed
// to decide whether a new request would rebuild it identically.
type rfEntry struct {
	net    int32
	nl     int
	cell   int
	bounds geom.Rect
	beta   []int
	gamma  []int
	dirs   []geom.Direction
	pts    []geom.Point3
	rf     *RFuture
	stamp  uint64 // LRU clock
}

// rfCacheSize bounds the engine's reduced-graph LRU; rip-up retries and
// ECO re-queries of the same few nets hit within a handful of entries.
const rfCacheSize = 8

// HFutureFor returns π_H for the given target points, identified by net.
// Identical consecutive requests (same net, layer count, costs, and
// points) return the cached structure; the per-layer via lower bound is
// memoized across nets by target-layer set. Cache hits are counted in
// Stats.PiReused.
func (e *Engine) HFutureFor(net int32, numLayers int, costs Costs, pts []geom.Point3) *HFuture {
	fc := &e.fc
	if fc.nl != numLayers || !intsEqual(fc.gamma, costs.GammaVia) {
		fc.gamma = append(fc.gamma[:0], costs.GammaVia...)
		fc.nl = numLayers
		fc.viaLBs = nil
		fc.lastPi = nil
	}
	if fc.lastPi != nil && fc.lastNet == net && fc.lastNL == numLayers && pts3Equal(fc.lastPts, pts) {
		e.total.PiReused++
		return fc.lastPi
	}

	// Targets are 1-unit rects around each point — the same geometry the
	// map-based NewHFuture path produces, so cached and uncached π agree.
	f := &HFuture{rects: make([]geom.Rect, 0, len(pts))}
	var mask uint64
	maskable := true
	for _, p := range pts {
		f.rects = append(f.rects, geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		if p.Z >= 0 && p.Z < 64 {
			mask |= 1 << uint(p.Z)
		} else {
			maskable = false
		}
	}
	if maskable {
		if lb, ok := fc.viaLBs[mask]; ok {
			f.viaLB = lb
			e.total.PiReused++
		} else {
			f.viaLB = viaLB(numLayers, costs.GammaVia, fc.targetLayers(numLayers, pts))
			if fc.viaLBs == nil {
				fc.viaLBs = map[uint64][]int{}
			}
			fc.viaLBs[mask] = f.viaLB
		}
	} else {
		f.viaLB = viaLB(numLayers, costs.GammaVia, fc.targetLayers(numLayers, pts))
	}

	fc.lastNet = net
	fc.lastNL = numLayers
	fc.lastPts = append(fc.lastPts[:0], pts...)
	fc.lastPi = f
	return f
}

// targetLayers fills the cache's pooled layer mask from the target
// points, replacing the per-call map the viaLB path used to allocate.
func (fc *futureCache) targetLayers(numLayers int, pts []geom.Point3) []bool {
	if cap(fc.tl) < numLayers {
		fc.tl = make([]bool, numLayers)
	}
	fc.tl = fc.tl[:numLayers]
	for i := range fc.tl {
		fc.tl[i] = false
	}
	for _, p := range pts {
		if p.Z >= 0 && p.Z < numLayers {
			fc.tl[p.Z] = true
		}
	}
	return fc.tl
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pts3Equal(a, b []geom.Point3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RFuture is the coarse-grid future cost: exact backward Dijkstra
// distances on a compressed grid that keeps large blockages, slacked for
// discretization and maxed pointwise with π_H, so it is never weaker
// than π_H. With per-layer directions it is the layer-aware reduced-graph
// π_R (after Ahrens et al., "Faster Goal-Oriented Shortest Path Search
// for Bulk and Incremental Detailed Routing"): an x-step on layer z costs
// wx[z]·cell where wx[z] is 1 when x is the layer's preferred direction
// and BetaJog[z] otherwise (symmetrically wy), and layer changes cost the
// exact GammaVia. Without directions every step weighs 1·cell, which is
// the blockage-aware π_P of the paper (Peyer et al. 2009, §4.1).
type RFuture struct {
	h      *HFuture
	bounds geom.Rect
	cell   int
	nx, ny int
	layers int
	slack  []int32 // per query layer: discretization slack subtracted in At
	dist   []int32 // [z][cy][cx] flattened, -1 = unreached
}

// RFutureConfig parameterizes the reduced grid.
type RFutureConfig struct {
	// Cell is the coarse cell edge length; 0 picks 1 + max(W,H)/64.
	Cell int
	// Dirs are the per-layer preferred directions (tracks.Layer.Dir).
	// When nil, both axes weigh 1 on every layer: the paper's π_P.
	Dirs []geom.Direction
	// Blocked reports whether the coarse cell (rect on layer z) is
	// impassable. Only report true when the cell is genuinely fully
	// blocked, otherwise the bound becomes inadmissible.
	Blocked func(z int, cellRect geom.Rect) bool
}

// NewRFuture builds π_R over bounds. targets maps layer → covering
// rectangles of the target vertices on that layer.
func NewRFuture(numLayers int, costs Costs, targets map[int][]geom.Rect,
	bounds geom.Rect, cfg RFutureConfig) *RFuture {
	h := NewHFuture(numLayers, costs, targets)
	cell := cfg.Cell
	if cell <= 0 {
		cell = 1 + max(bounds.W(), bounds.H())/64
	}
	nx := (bounds.W() + cell - 1) / cell
	ny := (bounds.H() + cell - 1) / cell
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	// Per-layer axis weights: 1 along the preferred direction, BetaJog
	// across it.
	wx := make([]int32, numLayers)
	wy := make([]int32, numLayers)
	for z := 0; z < numLayers; z++ {
		wx[z], wy[z] = 1, 1
		if z < len(cfg.Dirs) && z < len(costs.BetaJog) {
			if cfg.Dirs[z] == geom.Horizontal {
				wy[z] = int32(costs.BetaJog[z])
			} else {
				wx[z] = int32(costs.BetaJog[z])
			}
		}
	}
	// The discretization slack: the true path can under-travel the
	// modeled crossings by up to one cell per axis at each endpoint,
	// charged at that endpoint's own layer weights — (wx[z]+wy[z])·cell
	// at the query layer plus the worst such sum over the layers actually
	// holding targets. All weights 1 gives π_P's 4·cell.
	tSide := int32(0)
	for z := range targets {
		if z >= 0 && z < numLayers {
			if s := (wx[z] + wy[z]) * int32(cell); s > tSide {
				tSide = s
			}
		}
	}
	slack := make([]int32, numLayers)
	for z := 0; z < numLayers; z++ {
		slack[z] = (wx[z]+wy[z])*int32(cell) + tSide
	}
	p := &RFuture{
		h: h, bounds: bounds, cell: cell, nx: nx, ny: ny, layers: numLayers,
		slack: slack,
	}
	n := numLayers * nx * ny
	p.dist = make([]int32, n)
	for i := range p.dist {
		p.dist[i] = -1
	}
	blocked := make([]bool, n)
	if cfg.Blocked != nil {
		for z := 0; z < numLayers; z++ {
			for cy := 0; cy < ny; cy++ {
				for cx := 0; cx < nx; cx++ {
					blocked[p.idx(cx, cy, z)] = cfg.Blocked(z, p.cellRect(cx, cy))
				}
			}
		}
	}

	// Multi-source backward Dijkstra from target cells under the
	// anisotropic weights. Queue entries are keyed by tentative distance;
	// Tie is the flattened node index, so ties break on it and the settle
	// order — and with it every dist array — is deterministic.
	var pq heapq.Heap[int32, struct{}]
	push := func(cx, cy, z int, d int32) {
		if cx < 0 || cx >= nx || cy < 0 || cy >= ny || z < 0 || z >= numLayers {
			return
		}
		i := p.idx(cx, cy, z)
		if blocked[i] {
			return
		}
		if p.dist[i] >= 0 && p.dist[i] <= d {
			return
		}
		p.dist[i] = d
		pq.Push(heapq.Item[int32, struct{}]{Key: d, Tie: int64(i)})
	}
	for z, rs := range targets {
		for _, r := range rs {
			c0x, c0y := p.cellOf(r.XMin, r.YMin)
			c1x, c1y := p.cellOf(r.XMax, r.YMax)
			for cy := c0y; cy <= c1y; cy++ {
				for cx := c0x; cx <= c1x; cx++ {
					push(cx, cy, z, 0)
				}
			}
		}
	}
	for len(pq) > 0 {
		it := pq.Pop()
		i := int(it.Tie)
		if p.dist[i] != it.Key {
			continue
		}
		z := i / (nx * ny)
		rem := i % (nx * ny)
		cy, cx := rem/nx, rem%nx
		stepX := wx[z] * int32(cell)
		stepY := wy[z] * int32(cell)
		push(cx-1, cy, z, it.Key+stepX)
		push(cx+1, cy, z, it.Key+stepX)
		push(cx, cy-1, z, it.Key+stepY)
		push(cx, cy+1, z, it.Key+stepY)
		if z > 0 {
			push(cx, cy, z-1, it.Key+int32(costs.GammaVia[z-1]))
		}
		if z+1 < numLayers {
			push(cx, cy, z+1, it.Key+int32(costs.GammaVia[z]))
		}
	}
	return p
}

func (p *RFuture) idx(cx, cy, z int) int { return (z*p.ny+cy)*p.nx + cx }

func (p *RFuture) cellOf(x, y int) (int, int) {
	cx := (x - p.bounds.XMin) / p.cell
	cy := (y - p.bounds.YMin) / p.cell
	if cx < 0 {
		cx = 0
	} else if cx >= p.nx {
		cx = p.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= p.ny {
		cy = p.ny - 1
	}
	return cx, cy
}

func (p *RFuture) cellRect(cx, cy int) geom.Rect {
	return geom.Rect{
		XMin: p.bounds.XMin + cx*p.cell,
		YMin: p.bounds.YMin + cy*p.cell,
		XMax: p.bounds.XMin + (cx+1)*p.cell,
		YMax: p.bounds.YMin + (cy+1)*p.cell,
	}
}

// At returns π_R(x, y, z) ≥ π_H(x, y, z). The coarse distance is slacked
// for admissibility, but cell quantization can still make the potential
// locally infeasible across cell boundaries (bounded by one cell at the
// crossing axis' layer weight); the label-correcting interval search
// still returns a minimum-cost path. Cells unreachable in the coarse model
// (e.g. inside a blocked cell) fall back to π_H rather than claim
// infinity.
func (p *RFuture) At(x, y, z int) int {
	hb := p.h.At(x, y, z)
	cx, cy := p.cellOf(x, y)
	d := p.dist[p.idx(cx, cy, z)]
	if d < 0 {
		return hb
	}
	rb := int(d) - int(p.slack[z])
	if rb > hb {
		return rb
	}
	return hb
}

// RFutureFor returns the reduced-graph future cost for the given net and
// parameters, serving it from the engine's LRU when an entry with the
// identical parameter set exists. blocked is consulted only on a
// rebuild, so it must be a fixed function for the engine's lifetime (the
// detail router passes its static obstacle set). Cache hits are counted
// in Stats.PiReused. Hits allocate nothing, which the alloc-guard pins.
func (e *Engine) RFutureFor(net int32, numLayers int, costs Costs, dirs []geom.Direction,
	pts []geom.Point3, bounds geom.Rect, cell int,
	blocked func(z int, cellRect geom.Rect) bool) *RFuture {
	fc := &e.fc
	for i := range fc.rf {
		en := &fc.rf[i]
		if en.net != net || en.nl != numLayers || en.cell != cell || en.bounds != bounds ||
			!intsEqual(en.beta, costs.BetaJog) || !intsEqual(en.gamma, costs.GammaVia) ||
			!dirsEqual(en.dirs, dirs) || !pts3Equal(en.pts, pts) {
			continue
		}
		fc.rfClock++
		en.stamp = fc.rfClock
		e.total.PiReused++
		return en.rf
	}

	targets := make(map[int][]geom.Rect, len(pts))
	for _, p := range pts {
		targets[p.Z] = append(targets[p.Z], geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
	}
	rf := NewRFuture(numLayers, costs, targets, bounds,
		RFutureConfig{Cell: cell, Dirs: dirs, Blocked: blocked})

	fc.rfClock++
	en := rfEntry{
		net: net, nl: numLayers, cell: cell, bounds: bounds,
		beta:  append([]int(nil), costs.BetaJog...),
		gamma: append([]int(nil), costs.GammaVia...),
		dirs:  append([]geom.Direction(nil), dirs...),
		pts:   append([]geom.Point3(nil), pts...),
		rf:    rf, stamp: fc.rfClock,
	}
	if len(fc.rf) < rfCacheSize {
		fc.rf = append(fc.rf, en)
	} else {
		oldest := 0
		for i := 1; i < len(fc.rf); i++ {
			if fc.rf[i].stamp < fc.rf[oldest].stamp {
				oldest = i
			}
		}
		fc.rf[oldest] = en
	}
	return rf
}

func dirsEqual(a, b []geom.Direction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
