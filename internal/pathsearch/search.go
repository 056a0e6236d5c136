package pathsearch

import (
	"sort"

	"bonnroute/internal/drc"
	"bonnroute/internal/geom"
	"bonnroute/internal/tracks"
)

// Config wires the interval path search to its environment. Legality is
// supplied through callbacks so the search is independent of the fast
// grid / rule checker stack (the detailed router passes the fast grid's
// accessors; tests pass synthetic legality).
type Config struct {
	Tracks *tracks.Graph
	Costs  Costs
	// Pi is the future cost; nil means π ≡ 0 (plain Dijkstra).
	Pi FutureCost
	// Area restricts the search; nil means the whole track graph.
	Area *Area
	// MaxNeed is the rip-up ceiling: vertices needing rip-up effort above
	// it are unusable. 0 routes only through free space (§4.1); positive
	// values enable the rip-up mode of §4.2.
	MaxNeed drc.Need
	// RipupPenalty is the extra cost for entering an interval (or using a
	// jog/via) that requires rip-up effort need ≥ 1. nil with MaxNeed > 0
	// panics: rip-up must never be free.
	RipupPenalty func(need drc.Need) int
	// SpreadCost adds wire-spreading cost for using track positions
	// [lo, hi] of track trackIdx on layer z (§4.2); nil disables.
	SpreadCost func(z, trackIdx, lo, hi int) int
	// ForceHeapQueue disables the Dial bucket priority queue and always
	// uses the binary-heap fallback. Pop order is identical either way
	// (both break key ties by insertion order); the flag exists for
	// ablation benchmarks and queue-equivalence tests.
	ForceHeapQueue bool

	// WireRuns visits the Need runs of the preferred-direction wire model
	// along track trackIdx of layer z, clipped to [lo, hi]; gaps are
	// Need 0. Runs are half-open in DBU.
	WireRuns func(z, trackIdx, lo, hi int, visit func(lo, hi int, need drc.Need))
	// JogNeed is the Need of the jog segment from track lowerTrackIdx of
	// layer z to the next track above, at along-track position `along`.
	JogNeed func(z, lowerTrackIdx, along int) drc.Need
	// ViaNeed is the Need of a via between layers v and v+1 at pos.
	ViaNeed func(v, botTrack, topTrack int, pos geom.Point) drc.Need
}

// Stats reports search effort (the quantities behind the paper's
// interval-vs-node speedup claims). The JSON tags carry omitempty so
// serialized artifacts (cmd/routebench -bench-json) drop counters a
// flow never exercised — an ISR flow performs no crossing expansions,
// so it emits no "expanded" field instead of a misleading zero.
type Stats struct {
	Labels    int `json:"labels,omitempty"`    // labels created
	HeapPops  int `json:"heap_pops,omitempty"` // priority-queue extractions
	Expanded  int `json:"expanded,omitempty"`  // crossing expansions (jog/via relaxations)
	Intervals int `json:"intervals,omitempty"` // intervals materialized
	Searches  int `json:"searches,omitempty"`  // searches completed (engine totals)
	PiReused  int `json:"pi_reused,omitempty"` // future-cost structures served from the engine cache
}

// Effort is a machine-independent scalar summary of search work — the
// counters that track real exploration (labels, heap pops, crossing
// expansions, intervals). Schedulers use it to compare per-task load
// without depending on wall time.
func (s Stats) Effort() int64 {
	return int64(s.Labels) + int64(s.HeapPops) + int64(s.Expanded) + int64(s.Intervals)
}

// Add accumulates o into s — the merge step for per-engine tallies.
func (s *Stats) Add(o Stats) {
	s.Labels += o.Labels
	s.HeapPops += o.HeapPops
	s.Expanded += o.Expanded
	s.Intervals += o.Intervals
	s.Searches += o.Searches
	s.PiReused += o.PiReused
}

// Path is a found connection.
type Path struct {
	// Points are the waypoints from source to target; consecutive points
	// differ in exactly one coordinate (a track segment, jog, or via).
	Points []geom.Point3
	// Cost is the total edge cost.
	Cost int
	// Stats describes the search effort.
	Stats Stats
}

// Search finds a shortest S-T path in the track graph under cfg. It
// returns nil when no path exists. It is a convenience wrapper drawing a
// pooled Engine; long-lived callers (router workers) should hold their
// own Engine and call its Search method instead.
func Search(cfg *Config, S, T []geom.Point3) *Path {
	e := enginePool.Get().(*Engine)
	p := e.Search(cfg, S, T)
	enginePool.Put(e)
	return p
}

// Search finds a shortest S-T path using the engine's pooled state. The
// engine must not be used concurrently.
func (e *Engine) Search(cfg *Config, S, T []geom.Point3) *Path {
	e.beginSearch(cfg)
	p := e.run(S, T)
	e.endSearch()
	e.cfg = nil
	e.area = nil
	return p
}

// ival is an interval of track vertices with uniform rip-up need
// (Algorithm 4's I ∈ 𝓘). Bounds are inclusive DBU positions. Records
// live in the engine arena; id keys the expansion table.
type ival struct {
	id      int32
	z, ti   int
	lo, hi  int
	need    drc.Need
	labels  []int32 // indices into Engine.labels
	targets []int
}

// label is Algorithm 4's (v, δ): key = true distance from S to pos plus
// π(pos), plus backtracking info.
type label struct {
	iv        *ival
	pos       int
	key       int
	parent    int32 // label index, -1 for sources
	parentPos int   // position on the parent label's interval
	// frontiers of the settled sweep within iv (inclusive); the sweep
	// grows outward from pos as the key rises.
	sweptLo, sweptHi int
	// pendingL/pendingR record whether a continuation event for the
	// respective frontier is already in the queue (at most one per side,
	// bounding the queue by O(labels)).
	pendingL, pendingR bool
}

// pi evaluates the future cost at a track vertex.
func (e *Engine) pi(z, ti, along int) int {
	if e.cfg.Pi == nil {
		return 0
	}
	x, y := e.vertexXY(z, ti, along)
	return e.cfg.Pi.At(x, y, z)
}

func (e *Engine) vertexXY(z, ti, along int) (int, int) {
	l := &e.tg.Layers[z]
	c := l.Coords[ti]
	if l.Dir == geom.Horizontal {
		return along, c
	}
	return c, along
}

func (e *Engine) vertexPoint(z, ti, along int) geom.Point3 {
	x, y := e.vertexXY(z, ti, along)
	return geom.Pt3(x, y, z)
}

// intervalsOf lazily materializes the usable intervals of a track into
// the epoch-stamped flat cache.
func (e *Engine) intervalsOf(z, ti int) []*ival {
	entry := &e.trackCache[int(e.trackBase[z])+ti]
	if entry.epoch == e.epoch {
		return entry.ivs
	}
	ivs := entry.ivs[:0]
	l := &e.tg.Layers[z]
	c := l.Coords[ti]
	e.spanBuf = e.area.AppendTrackSpans(e.spanBuf[:0], z, l.Dir, c)
	for _, span := range e.spanBuf {
		ivs = e.materializeSpan(ivs, z, ti, span)
	}
	e.stats.Intervals += len(ivs)
	entry.epoch = e.epoch
	entry.ivs = ivs
	return ivs
}

// materializeSpan appends the usable intervals of one area span of track
// (z, ti) to ivs. Need runs from the wire model may arrive unordered or
// overlapping (overlaps take the maximum need); gaps are free (need 0).
// The normalization runs on pooled scratch: runs are collected, span
// boundaries coordinate-compressed, and per-slot maxima folded, replacing
// the per-call AVL interval map of the pre-engine implementation.
func (e *Engine) materializeSpan(ivs []*ival, z, ti int, span geom.Interval) []*ival {
	e.runBuf = e.runBuf[:0]
	e.runSpan = span
	if e.runVisitor == nil {
		e.runVisitor = func(lo, hi int, need drc.Need) {
			if lo < e.runSpan.Lo {
				lo = e.runSpan.Lo
			}
			if hi > e.runSpan.Hi {
				hi = e.runSpan.Hi
			}
			if lo < hi && need > 0 {
				e.runBuf = append(e.runBuf, needRun{lo, hi, need})
			}
		}
	}
	e.cfg.WireRuns(z, ti, span.Lo, span.Hi-1, e.runVisitor)

	if len(e.runBuf) == 0 {
		return e.appendIval(ivs, z, ti, span.Lo, span.Hi, 0)
	}

	// Coordinate-compress the run boundaries together with the span ends.
	e.posBuf = append(e.posBuf[:0], span.Lo, span.Hi)
	for _, r := range e.runBuf {
		e.posBuf = append(e.posBuf, r.lo, r.hi)
	}
	sort.Ints(e.posBuf)
	pos := e.posBuf[:1]
	for _, p := range e.posBuf[1:] {
		if p != pos[len(pos)-1] {
			pos = append(pos, p)
		}
	}
	nslots := len(pos) - 1
	if cap(e.needBuf) < nslots {
		e.needBuf = make([]drc.Need, nslots)
	}
	e.needBuf = e.needBuf[:nslots]
	for i := range e.needBuf {
		e.needBuf[i] = 0
	}
	for _, r := range e.runBuf {
		i := searchInts(pos, r.lo)
		for ; i < nslots && pos[i] < r.hi; i++ {
			if r.need > e.needBuf[i] {
				e.needBuf[i] = r.need
			}
		}
	}
	for i := 0; i < nslots; i++ {
		ivs = e.appendIval(ivs, z, ti, pos[i], pos[i+1], e.needBuf[i])
	}
	return ivs
}

// appendIval adds the half-open interval [lo, hi) with the given need,
// merging with a contiguous equal-need predecessor and dropping intervals
// above the rip-up ceiling.
func (e *Engine) appendIval(ivs []*ival, z, ti, lo, hi int, need drc.Need) []*ival {
	if lo >= hi || need > e.cfg.MaxNeed {
		return ivs
	}
	if n := len(ivs); n > 0 && ivs[n-1].hi == lo-1 && ivs[n-1].need == need {
		ivs[n-1].hi = hi - 1
		return ivs
	}
	iv := e.arena.alloc()
	iv.z, iv.ti, iv.lo, iv.hi, iv.need = z, ti, lo, hi-1, need
	return append(ivs, iv)
}

// findIval returns the interval of track (z, ti) containing pos, or nil.
func (e *Engine) findIval(z, ti, pos int) *ival {
	ivs := e.intervalsOf(z, ti)
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].hi < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ivs) && ivs[lo].lo <= pos {
		return ivs[lo]
	}
	return nil
}

// trackOf resolves a vertex's track index, or -1 when off-track.
func (e *Engine) trackOf(p geom.Point3) int {
	if p.Z < 0 || p.Z >= e.tg.NumLayers() {
		return -1
	}
	l := &e.tg.Layers[p.Z]
	return l.TrackAt(p.XY().Coord(l.Dir.Perp()))
}

func (e *Engine) alongOf(p geom.Point3) int {
	l := &e.tg.Layers[p.Z]
	return p.XY().Coord(l.Dir)
}

const inf = int(^uint(0) >> 2)

func (e *Engine) run(S, T []geom.Point3) *Path {
	// Register targets on their intervals.
	for _, t := range T {
		ti := e.trackOf(t)
		if ti < 0 {
			continue
		}
		iv := e.findIval(t.Z, ti, e.alongOf(t))
		if iv == nil {
			continue
		}
		iv.targets = append(iv.targets, e.alongOf(t))
		e.targetCount++
	}
	if e.targetCount == 0 {
		return nil
	}

	// Seed sources.
	for _, src := range S {
		ti := e.trackOf(src)
		if ti < 0 {
			continue
		}
		pos := e.alongOf(src)
		iv := e.findIval(src.Z, ti, pos)
		if iv == nil {
			continue
		}
		key := e.pi(src.Z, ti, pos) + e.entryCost(iv)
		e.addLabel(iv, pos, key, -1, 0)
	}

	for {
		it, ok := e.pq.pop()
		if !ok || it.Key >= e.best {
			break
		}
		e.stats.HeapPops++
		e.sweep(it.Val.label, it.Key, it.Val.side)
	}

	if e.bestLabel < 0 {
		return nil
	}
	return e.buildPath()
}

// entryCost is the extra cost of entering an interval: rip-up penalty
// plus spreading cost.
func (e *Engine) entryCost(iv *ival) int {
	c := 0
	if iv.need > 0 {
		c += e.cfg.RipupPenalty(iv.need)
	}
	if e.cfg.SpreadCost != nil {
		c += e.cfg.SpreadCost(iv.z, iv.ti, iv.lo, iv.hi)
	}
	return c
}

// labelKeyAt evaluates label li's induced key at position x within its
// interval: key + |x − pos| − π(pos) + π(x).
func (e *Engine) labelKeyAt(li int32, x int) int {
	lb := &e.labels[li]
	return lb.key + geom.Abs(x-lb.pos) - e.pi(lb.iv.z, lb.iv.ti, lb.pos) + e.pi(lb.iv.z, lb.iv.ti, x)
}

// sweepKey is the induced key at x for a label with the given base
// (key − π(pos)) and pos on interval iv.
func (e *Engine) sweepKey(iv *ival, base, pos, x int) int {
	return base + geom.Abs(x-pos) + e.pi(iv.z, iv.ti, x)
}

// addLabel inserts a label unless it is redundant (paper: (v', δ')
// redundant if δ' ≥ d_{(v,δ)}(v') for an existing label). Returns
// whether the label was added.
func (e *Engine) addLabel(iv *ival, pos, key int, parent int32, parentPos int) bool {
	if key >= e.best {
		return false
	}
	for _, li := range iv.labels {
		if e.labelKeyAt(li, pos) <= key {
			return false
		}
	}
	idx := int32(len(e.labels))
	e.labels = append(e.labels, label{
		iv: iv, pos: pos, key: key,
		parent: parent, parentPos: parentPos,
		sweptLo: pos + 1, sweptHi: pos - 1, // empty sweep
	})
	iv.labels = append(iv.labels, idx)
	e.stats.Labels++
	e.pushPQ(key, idx, 0)
	return true
}

func (e *Engine) pushPQ(key int, li int32, side int8) {
	e.pq.push(newPQItem(key, e.seq, li, side))
	e.seq++
}

// sweep settles every position of the label's interval whose induced key
// is ≤ cap, expands the newly settled crossings, and schedules
// continuation events for the rest of the interval. side records which
// pending continuation this call consumes (-1 left, +1 right, 0 initial).
func (e *Engine) sweep(li int32, cap int, side int8) {
	lb := &e.labels[li]
	iv := lb.iv
	pos := lb.pos
	base := lb.key - e.pi(iv.z, iv.ti, pos)

	switch side {
	case -1:
		lb.pendingL = false
	case +1:
		lb.pendingR = false
	}

	// Extend the swept range in both directions while key ≤ cap. The
	// induced key is nondecreasing away from pos (π is 1-Lipschitz), so
	// binary search finds the frontier.
	newLo := lb.sweptLo
	newHi := lb.sweptHi
	if newLo > newHi { // first sweep: start at pos
		newLo, newHi = pos, pos
		if e.sweepKey(iv, base, pos, pos) > cap {
			return
		}
		e.settleRange(li, pos, pos, base, pos)
	}
	// Right extension: frontier of key ≤ cap in [newHi+1, iv.hi]. The
	// probe sequence mirrors sort.Search exactly: π_P can be locally
	// non-monotone, where the frontier found depends on the probes made,
	// and routing output must not change with the queue refactor.
	if lo := newHi + 1; lo <= iv.hi && e.sweepKey(iv, base, pos, lo) <= cap {
		i, j := 0, iv.hi-lo+1
		for i < j {
			h := int(uint(i+j) >> 1)
			if e.sweepKey(iv, base, pos, lo+h) <= cap {
				i = h + 1
			} else {
				j = h
			}
		}
		r := lo + i - 1
		e.settleRange(li, lo, r, base, pos)
		newHi = r
	}
	// Left extension: frontier of key ≤ cap in [iv.lo, newLo-1].
	if hi := newLo - 1; hi >= iv.lo && e.sweepKey(iv, base, pos, hi) <= cap {
		i, j := 0, hi-iv.lo+1
		for i < j {
			h := int(uint(i+j) >> 1)
			if e.sweepKey(iv, base, pos, hi-h) <= cap {
				i = h + 1
			} else {
				j = h
			}
		}
		l := hi - i + 1
		e.settleRange(li, l, hi, base, pos)
		newLo = l
	}
	lb = &e.labels[li] // settle may grow e.labels; refresh pointer
	lb.sweptLo, lb.sweptHi = newLo, newHi

	// Continuation events at the frontiers, at most one outstanding per
	// side.
	if newHi < iv.hi && !lb.pendingR {
		if k := e.sweepKey(iv, base, pos, newHi+1); k < e.best {
			lb.pendingR = true
			e.pushPQ(k, li, +1)
		}
	}
	if newLo > iv.lo && !lb.pendingL {
		if k := e.sweepKey(iv, base, pos, newLo-1); k < e.best {
			lb.pendingL = true
			e.pushPQ(k, li, -1)
		}
	}
}

// settleRange settles positions [a, b] of label li (b ≥ a), expanding
// crossings and interval endpoints, and checking targets. base and pos
// parameterize the induced key (see sweepKey).
func (e *Engine) settleRange(li int32, a, b, base, pos int) {
	iv := e.labels[li].iv
	layer := &e.tg.Layers[iv.z]

	// Targets inside [a, b].
	for _, t := range iv.targets {
		if t >= a && t <= b {
			if k := e.sweepKey(iv, base, pos, t); k < e.best {
				e.best = k
				e.bestLabel = li
				e.bestPos = t
			}
		}
	}
	// Expand crossings.
	for _, x := range layer.CrossRange(a, b) {
		e.expand(li, x, e.sweepKey(iv, base, pos, x))
	}
	// Interval endpoints may abut a neighboring interval of different
	// need: relax the continuation step.
	if iv.lo >= a && iv.lo <= b {
		e.relaxAdjacent(li, iv, iv.lo, -1, e.sweepKey(iv, base, pos, iv.lo))
	}
	if iv.hi >= a && iv.hi <= b {
		e.relaxAdjacent(li, iv, iv.hi, +1, e.sweepKey(iv, base, pos, iv.hi))
	}
}

// relaxAdjacent steps from an interval endpoint to the abutting interval
// (cost 1 wire step plus the neighbor's entry cost).
func (e *Engine) relaxAdjacent(li int32, iv *ival, pos, dir, key int) {
	npos := pos + dir
	niv := e.findIval(iv.z, iv.ti, npos)
	if niv == nil || niv == iv {
		return
	}
	piHere := e.pi(iv.z, iv.ti, pos)
	piThere := e.pi(iv.z, iv.ti, npos)
	nk := key + 1 + e.entryCost(niv) - piHere + piThere
	e.addLabel(niv, npos, nk, li, pos)
}

// expand relaxes the jog and via edges out of crossing x of label li's
// interval. Re-expansion happens only when the key improved
// (label-correcting safety for quantized future costs).
func (e *Engine) expand(li int32, x, key int) {
	iv := e.labels[li].iv
	expKey := uint64(iv.id)<<32 | uint64(uint32(x))
	if old, ok := e.exp.get(expKey); ok && old <= key {
		return
	}
	e.exp.set(expKey, key)
	e.stats.Expanded++

	z, ti := iv.z, iv.ti
	layer := &e.tg.Layers[z]
	piHere := e.pi(z, ti, x)
	base := key - piHere

	// Jog up.
	if ti+1 < len(layer.Coords) {
		gap := layer.Coords[ti+1] - layer.Coords[ti]
		if need := e.cfg.JogNeed(z, ti, x); need <= e.cfg.MaxNeed {
			if niv := e.findIval(z, ti+1, x); niv != nil {
				cost := e.cfg.Costs.BetaJog[z]*gap + e.jogPenalty(need) + e.entryCost(niv)
				e.addLabel(niv, x, base+cost+e.pi(z, ti+1, x), li, x)
			}
		}
	}
	// Jog down.
	if ti > 0 {
		gap := layer.Coords[ti] - layer.Coords[ti-1]
		if need := e.cfg.JogNeed(z, ti-1, x); need <= e.cfg.MaxNeed {
			if niv := e.findIval(z, ti-1, x); niv != nil {
				cost := e.cfg.Costs.BetaJog[z]*gap + e.jogPenalty(need) + e.entryCost(niv)
				e.addLabel(niv, x, base+cost+e.pi(z, ti-1, x), li, x)
			}
		}
	}
	// Vias. The crossing coordinate x is a track coordinate of an
	// adjacent layer; a via exists where it is a track of that layer.
	px, py := e.vertexXY(z, ti, x)
	pos := geom.Pt(px, py)
	if z+1 < e.tg.NumLayers() {
		up := &e.tg.Layers[z+1]
		if topTi := up.TrackAt(pos.Coord(up.Dir.Perp())); topTi >= 0 {
			if need := e.cfg.ViaNeed(z, ti, topTi, pos); need <= e.cfg.MaxNeed {
				upAlong := pos.Coord(up.Dir)
				if niv := e.findIval(z+1, topTi, upAlong); niv != nil {
					cost := e.cfg.Costs.GammaVia[z] + e.jogPenalty(need) + e.entryCost(niv)
					e.addLabel(niv, upAlong, base+cost+e.pi(z+1, topTi, upAlong), li, x)
				}
			}
		}
	}
	if z > 0 {
		down := &e.tg.Layers[z-1]
		if botTi := down.TrackAt(pos.Coord(down.Dir.Perp())); botTi >= 0 {
			if need := e.cfg.ViaNeed(z-1, botTi, ti, pos); need <= e.cfg.MaxNeed {
				downAlong := pos.Coord(down.Dir)
				if niv := e.findIval(z-1, botTi, downAlong); niv != nil {
					cost := e.cfg.Costs.GammaVia[z-1] + e.jogPenalty(need) + e.entryCost(niv)
					e.addLabel(niv, downAlong, base+cost+e.pi(z-1, botTi, downAlong), li, x)
				}
			}
		}
	}
}

func (e *Engine) jogPenalty(need drc.Need) int {
	if need == 0 {
		return 0
	}
	return e.cfg.RipupPenalty(need)
}

// buildPath backtracks from the best target hit.
func (e *Engine) buildPath() *Path {
	var pts []geom.Point3
	li := e.bestLabel
	pos := e.bestPos
	for li >= 0 {
		lb := &e.labels[li]
		pts = append(pts, e.vertexPoint(lb.iv.z, lb.iv.ti, pos))
		if lb.pos != pos {
			pts = append(pts, e.vertexPoint(lb.iv.z, lb.iv.ti, lb.pos))
		}
		pos = lb.parentPos
		li = lb.parent
	}
	// Reverse to source → target order.
	for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
		pts[i], pts[j] = pts[j], pts[i]
	}
	pts = compressWaypoints(pts)
	return &Path{Points: pts, Cost: e.best, Stats: e.stats}
}

// compressWaypoints drops collinear intermediate points.
func compressWaypoints(pts []geom.Point3) []geom.Point3 {
	if len(pts) <= 2 {
		return pts
	}
	out := pts[:1]
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		if p == out[len(out)-1] {
			continue
		}
		if len(out) >= 2 {
			a, b := out[len(out)-2], out[len(out)-1]
			if collinear(a, b, p) {
				out[len(out)-1] = p
				continue
			}
		}
		out = append(out, p)
	}
	return out
}

func collinear(a, b, c geom.Point3) bool {
	if a.Z != b.Z || b.Z != c.Z {
		return a.X == b.X && b.X == c.X && a.Y == b.Y && b.Y == c.Y
	}
	if a.X == b.X && b.X == c.X {
		return between(a.Y, b.Y, c.Y)
	}
	if a.Y == b.Y && b.Y == c.Y {
		return between(a.X, b.X, c.X)
	}
	return false
}

func between(a, b, c int) bool { return (a <= b && b <= c) || (a >= b && b >= c) }
