package pathsearch

import (
	"fmt"
	"math/rand"
	"testing"

	"bonnroute/internal/geom"
)

// futureScenario is one synthetic world + target set the future-cost
// property tests run every π implementation against, at the given coarse
// cell size.
type futureScenario struct {
	name    string
	world   *testWorld
	costs   Costs
	targets map[int][]geom.Rect
	T       []geom.Point3
	cell    int
}

func futureScenarios() []futureScenario {
	mk := func(name string, pts []geom.Point3, block func(w *testWorld)) futureScenario {
		w := newWorld(4, 10, 300)
		if block != nil {
			block(w)
		}
		targets := map[int][]geom.Rect{}
		for _, p := range pts {
			targets[p.Z] = append(targets[p.Z],
				geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
		return futureScenario{
			name: name, world: w, costs: UniformCosts(4, 3, 50),
			targets: targets, T: pts, cell: 40,
		}
	}
	scs := []futureScenario{
		mk("free", []geom.Point3{geom.Pt3(245, 45, 0)}, nil),
		mk("wall", []geom.Point3{geom.Pt3(245, 45, 0)}, func(w *testWorld) {
			// A wall across the middle of every layer, wide enough to cover
			// whole coarse-grid cells, leaving only a narrow corridor at the
			// top: crossing it forces a long detour the reduced grid must see.
			for z := 0; z < 4; z++ {
				w.block(z, geom.R(120, 0, 200, 280))
			}
		}),
		mk("multi-target", []geom.Point3{
			geom.Pt3(245, 45, 0), geom.Pt3(55, 245, 2), geom.Pt3(155, 155, 1),
		}, func(w *testWorld) {
			w.block(0, geom.R(80, 80, 120, 200))
			w.block(1, geom.R(180, 40, 220, 120))
		}),
	}
	// Non-uniform per-layer costs: random jog weights β ∈ [1,9] and via
	// costs γ ∈ [5,104], random blockages, targets and cell sizes — the
	// regime where π_R's anisotropic weights and per-layer slack differ
	// most from π_P's.
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		costs := UniformCosts(4, 3, 50)
		for z := range costs.BetaJog {
			costs.BetaJog[z] = 1 + rng.Intn(9)
		}
		for z := range costs.GammaVia {
			costs.GammaVia[z] = 5 + rng.Intn(100)
		}
		var blocks []geom.Rect
		var blockZ []int
		for i, nb := 0, rng.Intn(4); i < nb; i++ {
			z := rng.Intn(4)
			x0, y0 := rng.Intn(250), rng.Intn(250)
			blockZ = append(blockZ, z)
			blocks = append(blocks, geom.R(x0, y0, x0+20+rng.Intn(80), y0+20+rng.Intn(80)))
		}
		var pts []geom.Point3
		for i, nT := 0, 1+rng.Intn(3); i < nT; i++ {
			// On a track crossing, so the exact reference search reaches it.
			pts = append(pts, geom.Pt3(5+10*rng.Intn(29), 5+10*rng.Intn(29), rng.Intn(4)))
		}
		sc := mk(fmt.Sprintf("nonuniform-%d", trial), pts, func(w *testWorld) {
			for i, r := range blocks {
				w.block(blockZ[i], r)
			}
		})
		sc.costs = costs
		sc.cell = 10 + rng.Intn(60)
		reachable := true
		for _, p := range pts {
			if sc.world.isBlocked(p.Z, p.X, p.Y) {
				reachable = false
			}
		}
		if reachable {
			scs = append(scs, sc)
		}
	}
	return scs
}

// trackVertices enumerates the scenario's track-graph vertices.
func trackVertices(w *testWorld) []geom.Point3 {
	var out []geom.Point3
	for z := range w.tg.Layers {
		layer := &w.tg.Layers[z]
		for _, c := range layer.Coords {
			for _, along := range layer.Cross {
				if layer.Dir == geom.Horizontal {
					out = append(out, geom.Pt3(along, c, z))
				} else {
					out = append(out, geom.Pt3(c, along, z))
				}
			}
		}
	}
	return out
}

// buildFutures constructs every FutureCost implementation over the
// scenario — π_H, the unit-weight coarse grid π_P (RFuture without layer
// directions) and the layer-aware π_R — returning name → π plus the
// per-π feasibility slack the coarse grids are allowed (0 for the exact
// π_H; one cell at the crossing axis' heaviest weight for the quantized
// grids, as documented on RFuture.At).
func buildFutures(sc futureScenario) (map[string]FutureCost, map[string]int) {
	cell := sc.cell
	bounds := sc.world.tg.Area
	blocked := func(z int, cellRect geom.Rect) bool {
		for _, r := range sc.world.blocked[z] {
			if r.ContainsRect(cellRect) {
				return true
			}
		}
		return false
	}
	dirs := make([]geom.Direction, len(sc.world.tg.Layers))
	betaMax := 1
	for z := range dirs {
		dirs[z] = sc.world.tg.Layers[z].Dir
		if sc.costs.BetaJog[z] > betaMax {
			betaMax = sc.costs.BetaJog[z]
		}
	}
	nl := len(dirs)
	pis := map[string]FutureCost{
		"HFuture": NewHFuture(nl, sc.costs, sc.targets),
		"piP": NewRFuture(nl, sc.costs, sc.targets, bounds,
			RFutureConfig{Cell: cell, Blocked: blocked}),
		"RFuture": NewRFuture(nl, sc.costs, sc.targets, bounds,
			RFutureConfig{Cell: cell, Dirs: dirs, Blocked: blocked}),
	}
	slack := map[string]int{"HFuture": 0, "piP": cell, "RFuture": betaMax * cell}
	return pis, slack
}

// TestFutureFeasibility samples track-graph edges and asserts
// π(u) ≤ c(u,v) + π(v) (+ the documented per-π quantization slack) for
// every FutureCost implementation: the property the goal-directed search
// needs for nonnegative reduced costs.
func TestFutureFeasibility(t *testing.T) {
	for _, sc := range futureScenarios() {
		pis, slack := buildFutures(sc)
		verts := trackVertices(sc.world)
		rng := rand.New(rand.NewSource(7))
		check := func(name string, pi FutureCost, u, v geom.Point3, c int) {
			d := pi.At(u.X, u.Y, u.Z) - c - pi.At(v.X, v.Y, v.Z)
			if d > slack[name] {
				t.Fatalf("%s/%s: infeasible edge %v -> %v cost %d: π(u)-c-π(v) = %d > slack %d",
					sc.name, name, u, v, c, d, slack[name])
			}
		}
		// Only edges that exist in the real track graph count: a segment
		// through a blocked rect is NeedNever in the harness config.
		clear := func(z int, a, b geom.Point3) bool {
			seg := geom.Rect{
				XMin: min(a.X, b.X), YMin: min(a.Y, b.Y),
				XMax: max(a.X, b.X) + 1, YMax: max(a.Y, b.Y) + 1,
			}
			for _, r := range sc.world.blocked[z] {
				if r.Intersects(seg) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 4000; i++ {
			u := verts[rng.Intn(len(verts))]
			layer := &sc.world.tg.Layers[u.Z]
			var edges []struct {
				v geom.Point3
				c int
			}
			add := func(v geom.Point3, c int) {
				if u.Z == v.Z && !clear(u.Z, u, v) {
					return
				}
				if u.Z != v.Z && (!clear(u.Z, u, u) || !clear(v.Z, v, v)) {
					return
				}
				edges = append(edges, struct {
					v geom.Point3
					c int
				}{v, c})
			}
			// Along-track step to a random other crossing on the track.
			along := layer.Cross[rng.Intn(len(layer.Cross))]
			if v := u; layer.Dir == geom.Horizontal {
				v.X = along
				add(v, abs(v.X-u.X))
			} else {
				v.Y = along
				add(v, abs(v.Y-u.Y))
			}
			// Jog to the adjacent track.
			ti := layer.TrackAt(geom.Pt(u.X, u.Y).Coord(layer.Dir.Perp()))
			if ti >= 0 && ti+1 < len(layer.Coords) {
				gap := layer.Coords[ti+1] - layer.Coords[ti]
				v := u
				if layer.Dir == geom.Horizontal {
					v.Y += gap
				} else {
					v.X += gap
				}
				add(v, sc.costs.BetaJog[u.Z]*gap)
			}
			// Via up.
			if u.Z+1 < len(sc.world.tg.Layers) {
				add(geom.Pt3(u.X, u.Y, u.Z+1), sc.costs.GammaVia[u.Z])
			}
			for name, pi := range pis {
				for _, e := range edges {
					// Feasibility is symmetric for undirected edges: check
					// both orientations.
					check(name, pi, u, e.v, e.c)
					check(name, pi, e.v, u, e.c)
				}
			}
		}
	}
}

// TestFutureAdmissibility compares every π against exact distances: for
// sampled vertices u, π(u) must not exceed the cost of a shortest path
// from u to the target set (computed by the node-based reference
// Dijkstra with π ≡ 0).
func TestFutureAdmissibility(t *testing.T) {
	for _, sc := range futureScenarios() {
		pis, _ := buildFutures(sc)
		verts := trackVertices(sc.world)
		rng := rand.New(rand.NewSource(11))
		cfg := sc.world.config(sc.costs, nil, nil)
		checked := 0
		for i := 0; i < len(verts) && checked < 60; i++ {
			u := verts[rng.Intn(len(verts))]
			if sc.world.isBlocked(u.Z, u.X, u.Y) {
				continue
			}
			p := NodeSearch(cfg, []geom.Point3{u}, sc.T)
			if p == nil {
				continue
			}
			checked++
			for name, pi := range pis {
				if got := pi.At(u.X, u.Y, u.Z); got > p.Cost {
					t.Fatalf("%s/%s: inadmissible at %v: π = %d > exact %d",
						sc.name, name, u, got, p.Cost)
				}
			}
		}
		if checked < 20 {
			t.Fatalf("%s: only %d vertices reached the targets", sc.name, checked)
		}
		// π must vanish on the targets themselves.
		for _, tp := range sc.T {
			for name, pi := range pis {
				if got := pi.At(tp.X, tp.Y, tp.Z); got != 0 {
					t.Fatalf("%s/%s: π(target %v) = %d, want 0", sc.name, name, tp, got)
				}
			}
		}
	}
}

// TestFutureDominance asserts the coarse-grid bounds never fall below
// π_H pointwise (both take the max with it by construction) and that the
// reduced grid actually strengthens the bound somewhere on the detour
// scenario — otherwise the stronger machinery is dead weight.
func TestFutureDominance(t *testing.T) {
	for _, sc := range futureScenarios() {
		pis, _ := buildFutures(sc)
		h := pis["HFuture"]
		stronger := 0
		for _, u := range trackVertices(sc.world) {
			hb := h.At(u.X, u.Y, u.Z)
			for _, name := range []string{"piP", "RFuture"} {
				if got := pis[name].At(u.X, u.Y, u.Z); got < hb {
					t.Fatalf("%s/%s: %d < π_H %d at %v", sc.name, name, got, hb, u)
				}
			}
			if pis["RFuture"].At(u.X, u.Y, u.Z) > hb {
				stronger++
			}
		}
		if sc.name == "wall" && stronger == 0 {
			t.Fatalf("%s: π_R never exceeds π_H despite the wall", sc.name)
		}
	}
}

// TestRFutureCacheReuse pins the engine-side incremental reuse contract:
// identical re-queries hit (counted in PiReused, pointer-identical),
// parameter changes rebuild, and the LRU stays bounded.
func TestRFutureCacheReuse(t *testing.T) {
	sc := futureScenarios()[1] // wall
	dirs := make([]geom.Direction, len(sc.world.tg.Layers))
	for z := range dirs {
		dirs[z] = sc.world.tg.Layers[z].Dir
	}
	blocked := func(z int, cellRect geom.Rect) bool { return false }
	bounds := sc.world.tg.Area
	e := NewEngine()

	rf1 := e.RFutureFor(1, 4, sc.costs, dirs, sc.T, bounds, 40, blocked)
	base := e.Stats().PiReused
	rf2 := e.RFutureFor(1, 4, sc.costs, dirs, sc.T, bounds, 40, blocked)
	if rf1 != rf2 || e.Stats().PiReused != base+1 {
		t.Fatalf("identical re-query did not hit (reused %d -> %d)", base, e.Stats().PiReused)
	}

	// Changed targets rebuild.
	T2 := append(append([]geom.Point3(nil), sc.T...), geom.Pt3(25, 25, 1))
	if rf5 := e.RFutureFor(1, 4, sc.costs, dirs, T2, bounds, 40, blocked); rf5 == rf1 {
		t.Fatal("changed targets served a stale π")
	}
	// The LRU holds rfCacheSize entries; a sweep of distinct nets evicts
	// the oldest, and the evicted net rebuilds (no hit).
	for net := int32(10); net < int32(10+rfCacheSize); net++ {
		e.RFutureFor(net, 4, sc.costs, dirs, sc.T, bounds, 40, blocked)
	}
	reused := e.Stats().PiReused
	e.RFutureFor(1, 4, sc.costs, dirs, T2, bounds, 40, blocked)
	if e.Stats().PiReused != reused {
		t.Fatal("evicted entry claimed a cache hit")
	}
	if len(e.fc.rf) > rfCacheSize {
		t.Fatalf("cache grew to %d entries (cap %d)", len(e.fc.rf), rfCacheSize)
	}
}

// TestFutureSteadyStateAllocs pins the alloc budget of future-cost
// construction in steady state: engine-cached π requests (the rip-up
// retry / ECO re-query path) must not allocate at all.
func TestFutureSteadyStateAllocs(t *testing.T) {
	sc := futureScenarios()[0]
	dirs := make([]geom.Direction, len(sc.world.tg.Layers))
	for z := range dirs {
		dirs[z] = sc.world.tg.Layers[z].Dir
	}
	blocked := func(z int, cellRect geom.Rect) bool { return false }
	bounds := sc.world.tg.Area
	e := NewEngine()
	e.RFutureFor(3, 4, sc.costs, dirs, sc.T, bounds, 40, blocked)
	e.HFutureFor(3, 4, sc.costs, sc.T)
	allocs := testing.AllocsPerRun(100, func() {
		e.RFutureFor(3, 4, sc.costs, dirs, sc.T, bounds, 40, blocked)
		e.HFutureFor(3, 4, sc.costs, sc.T)
	})
	if allocs > 0 {
		t.Fatalf("cached future-cost requests allocate %.1f/op, want 0", allocs)
	}
}

// TestRFutureEmptyTargets mirrors TestHFutureNoTargets: with nothing to
// aim at, π must be identically zero (a feasible no-op potential).
func TestRFutureEmptyTargets(t *testing.T) {
	rf := NewRFuture(4, UniformCosts(4, 3, 50), nil, geom.R(0, 0, 300, 300),
		RFutureConfig{Cell: 40})
	for _, p := range []geom.Point3{geom.Pt3(0, 0, 0), geom.Pt3(150, 150, 2)} {
		if got := rf.At(p.X, p.Y, p.Z); got != 0 {
			t.Fatalf("π_R%v = %d, want 0", p, got)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
