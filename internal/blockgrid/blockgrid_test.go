package blockgrid

import (
	"math/rand"
	"testing"

	"bonnroute/internal/geom"
)

func TestCoordinatesBasic(t *testing.T) {
	// A single base coordinate produces a τ-lattice ±2τ around it.
	got := Coordinates([]int{100}, 10, geom.Iv(0, 200))
	want := map[int]bool{80: true, 90: true, 100: true, 110: true, 120: true}
	for _, x := range got {
		if !want[x] {
			t.Fatalf("unexpected coordinate %d in %v", x, got)
		}
		delete(want, x)
	}
	if len(want) != 0 {
		t.Fatalf("missing coordinates %v (got %v)", want, got)
	}
}

func TestCoordinatesClustering(t *testing.T) {
	// Two coordinates closer than 4τ cluster: fill spans both ±2τ with
	// both phases.
	got := Coordinates([]int{100, 115}, 10, geom.Iv(0, 300))
	has := func(x int) bool {
		for _, g := range got {
			if g == x {
				return true
			}
		}
		return false
	}
	for _, x := range []int{80, 90, 100, 110, 120, 130, 95, 105, 115, 125, 135, 85} {
		if !has(x) {
			t.Fatalf("missing %d in %v", x, got)
		}
	}
	// Two far-apart coordinates do not bridge.
	got = Coordinates([]int{0, 1000}, 10, geom.Iv(-100, 1100))
	for _, x := range got {
		if x > 20 && x < 980 {
			t.Fatalf("fill leaked into the gap: %d", x)
		}
	}
}

func TestCoordinatesDegenerate(t *testing.T) {
	if got := Coordinates([]int{5}, 0, geom.Iv(0, 10)); got != nil {
		t.Fatal("τ=0 must return nil")
	}
	if got := Coordinates([]int{5}, 3, geom.Iv(10, 10)); got != nil {
		t.Fatal("empty span must return nil")
	}
	// Clipping respects the span.
	got := Coordinates([]int{0}, 10, geom.Iv(0, 10))
	for _, x := range got {
		if x < 0 || x > 10 {
			t.Fatalf("coordinate %d outside span", x)
		}
	}
}

func TestSearchStraight(t *testing.T) {
	pts, length, ok := Search(nil, geom.Pt(0, 0), geom.Pt(50, 0), 10, geom.R(-50, -50, 150, 100))
	if !ok {
		t.Fatal("no path")
	}
	if length != 50 {
		t.Fatalf("length = %d", length)
	}
	if !SegmentsOK(pts, 10, nil) {
		t.Fatalf("path %v violates τ", pts)
	}
}

func TestSearchBend(t *testing.T) {
	pts, length, ok := Search(nil, geom.Pt(0, 0), geom.Pt(40, 30), 10, geom.R(-50, -50, 150, 150))
	if !ok {
		t.Fatal("no path")
	}
	if length != 70 {
		t.Fatalf("length = %d, want 70", length)
	}
	if !SegmentsOK(pts, 10, nil) {
		t.Fatalf("path %v violates τ", pts)
	}
}

// TestFigure5Scenario is the paper's Fig. 5: a target closer than τ in
// one axis forces a longer approach so that all segments stay ≥ τ.
func TestFigure5Scenario(t *testing.T) {
	tau := 20
	s := geom.Pt(0, 0)
	tgt := geom.Pt(50, 5) // Δy = 5 < τ
	pts, length, ok := Search(nil, s, tgt, tau, geom.R(-100, -100, 200, 200))
	if !ok {
		t.Fatal("no τ-feasible path")
	}
	if !SegmentsOK(pts, tau, nil) {
		t.Fatalf("segments violate τ: %v", pts)
	}
	// The geometric shortest path has length 55 but needs a 5-long
	// segment; τ-feasible must detour: length ≥ 50 + 2·τ − ... at least
	// strictly above 55 unless it overshoots smartly: going up ≥τ and
	// back down ≥τ costs ≥ 50 + τ + (τ−5)... any feasible solution is
	// longer than 55.
	if length <= 55 {
		t.Fatalf("length = %d: τ-infeasible shortcut taken", length)
	}
	// And it must be bounded: a simple overshoot solution exists with
	// length 50 + 20 + 15 = 85.
	if length > 95 {
		t.Fatalf("length = %d: detour unreasonably long", length)
	}
}

func TestSearchAvoidsObstacles(t *testing.T) {
	obst := []geom.Rect{geom.R(20, -40, 30, 40)}
	pts, length, ok := Search(obst, geom.Pt(0, 0), geom.Pt(60, 0), 10, geom.R(-100, -100, 200, 200))
	if !ok {
		t.Fatal("no path")
	}
	if !SegmentsOK(pts, 10, obst) {
		t.Fatalf("path %v enters obstacle", pts)
	}
	if length <= 60 {
		t.Fatalf("length = %d: obstacle ignored", length)
	}
}

func TestSearchInfeasible(t *testing.T) {
	// Box around the source with walls thicker than the bounds allow
	// escaping.
	obst := []geom.Rect{
		geom.R(-30, -30, 30, -10),
		geom.R(-30, 10, 30, 30),
		geom.R(-30, -30, -10, 30),
		geom.R(10, -30, 30, 30),
	}
	_, _, ok := Search(obst, geom.Pt(0, 0), geom.Pt(100, 0), 15, geom.R(-50, -50, 150, 50))
	if ok {
		t.Fatal("expected no path out of the box")
	}
}

func TestSearchSameSourceTarget(t *testing.T) {
	pts, length, ok := Search(nil, geom.Pt(5, 5), geom.Pt(5, 5), 10, geom.R(0, 0, 10, 10))
	if !ok || length != 0 || len(pts) != 1 {
		t.Fatalf("self path: %v %d %v", pts, length, ok)
	}
}

// Property: on random instances, found paths are always τ-feasible and
// obstacle-free; and when a wide-open straight corridor exists, the path
// is found.
func TestSearchRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		tau := 5 + rng.Intn(15)
		bounds := geom.R(-200, -200, 200, 200)
		var obst []geom.Rect
		for i := 0; i < rng.Intn(6); i++ {
			x, y := rng.Intn(200)-100, rng.Intn(200)-100
			obst = append(obst, geom.R(x, y, x+10+rng.Intn(60), y+10+rng.Intn(60)))
		}
		s := geom.Pt(-150, -150)
		tgt := geom.Pt(150, 150)
		insideObst := false
		for _, o := range obst {
			if o.Contains(s) || o.Contains(tgt) {
				insideObst = true
			}
		}
		if insideObst {
			continue
		}
		pts, length, ok := Search(obst, s, tgt, tau, bounds)
		if !ok {
			t.Fatalf("trial %d: no path despite open borders", trial)
		}
		if !SegmentsOK(pts, tau, obst) {
			t.Fatalf("trial %d: infeasible path %v", trial, pts)
		}
		if length < s.Dist1(tgt) {
			t.Fatalf("trial %d: length %d below ℓ1 distance", trial, length)
		}
		if pts[0] != s || pts[len(pts)-1] != tgt {
			t.Fatalf("trial %d: endpoints wrong", trial)
		}
	}
}

func TestSegmentsOK(t *testing.T) {
	obst := []geom.Rect{geom.R(10, 10, 20, 20)}
	// Non-rectilinear.
	if SegmentsOK([]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)}, 1, nil) {
		t.Fatal("diagonal accepted")
	}
	// Short segment.
	if SegmentsOK([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, 5, nil) {
		t.Fatal("short segment accepted")
	}
	// Through obstacle.
	if SegmentsOK([]geom.Point{geom.Pt(0, 15), geom.Pt(30, 15)}, 5, obst) {
		t.Fatal("obstacle crossing accepted")
	}
	// Along the border is fine.
	if !SegmentsOK([]geom.Point{geom.Pt(0, 10), geom.Pt(30, 10)}, 5, obst) {
		t.Fatal("border run rejected")
	}
	// Empty path.
	if !SegmentsOK(nil, 5, obst) {
		t.Fatal("empty path rejected")
	}
}

// pinAccessProbes is a pin-access-shaped workload at the default deck's
// scale (pitch 40, τ = 40): a 20×60 pin centre boxed in by inflated
// neighbour pins and a cell blockage, probed towards on-track endpoints
// up to four pitches away, within the pin expanded by 4·pitch + 2τ, as
// pinaccess.BuildCatalogue does per pin.
func pinAccessProbes() (obst []geom.Rect, start geom.Point, ends []geom.Point, tau int, bounds geom.Rect) {
	obst = []geom.Rect{
		geom.R(-110, -60, -50, 60), // neighbour pin
		geom.R(50, -60, 110, 60),   // neighbour pin
		geom.R(-40, 70, 40, 110),   // cell blockage
	}
	start, tau = geom.Pt(0, 0), 40
	bounds = geom.R(-10, -30, 10, 30).Expanded(4*40 + 2*tau)
	for _, x := range []int{-120, -40, 40, 120} {
		for _, y := range []int{-160, 160} {
			ends = append(ends, geom.Pt(x, y))
		}
	}
	return obst, start, ends, tau, bounds
}

// TestSearcherSteadyStateAllocs pins the pooled searcher's budget: once
// its grid, Dijkstra arrays and queue have grown, a probe allocates only
// the waypoint slice it returns.
func TestSearcherSteadyStateAllocs(t *testing.T) {
	obst, start, ends, tau, bounds := pinAccessProbes()
	sr := NewSearcher()
	found := 0
	probe := func() {
		found = 0
		for _, end := range ends {
			if _, _, ok := sr.Search(obst, start, end, tau, bounds); ok {
				found++
			}
		}
	}
	probe()
	if found == 0 {
		t.Fatal("no probe found a path")
	}
	if got := testing.AllocsPerRun(20, probe); got != float64(found) {
		t.Fatalf("%d probes finding %d paths allocate %.1f times, want one per path", len(ends), found, got)
	}
}

func BenchmarkSearcher(b *testing.B) {
	obst, start, ends, tau, bounds := pinAccessProbes()
	sr := NewSearcher()
	found := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, end := range ends {
			if _, _, ok := sr.Search(obst, start, end, tau, bounds); ok {
				found++
			}
		}
	}
	if found == 0 {
		b.Fatal("no probe found a path")
	}
}
