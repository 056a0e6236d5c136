package pathsearch

import (
	"math/rand"
	"testing"

	"bonnroute/internal/geom"
)

// Admissibility of RFuture under non-uniform per-layer jog weights and
// random blockages and cell sizes.
func TestScratchRFutureAdmissibilityNonUniform(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		w := newWorld(4, 10, 300)
		costs := UniformCosts(4, 3, 50)
		for z := range costs.BetaJog {
			costs.BetaJog[z] = 1 + rng.Intn(9) // 1..9, non-uniform
		}
		for z := range costs.GammaVia {
			costs.GammaVia[z] = 5 + rng.Intn(100)
		}
		// random blockages
		nb := rng.Intn(4)
		for i := 0; i < nb; i++ {
			z := rng.Intn(4)
			x0, y0 := rng.Intn(250), rng.Intn(250)
			w.block(z, geom.R(x0, y0, x0+20+rng.Intn(80), y0+20+rng.Intn(80)))
		}
		// random on-track targets: an off-track target is unreachable
		// and would leave nothing to compare against
		verts := trackVertices(w)
		var T []geom.Point3
		nT := 1 + rng.Intn(3)
		for i := 0; i < nT; i++ {
			T = append(T, verts[rng.Intn(len(verts))])
		}
		targets := map[int][]geom.Rect{}
		ok := true
		for _, p := range T {
			if w.isBlocked(p.Z, p.X, p.Y) {
				ok = false
			}
			targets[p.Z] = append(targets[p.Z], geom.Rect{XMin: p.X, YMin: p.Y, XMax: p.X + 1, YMax: p.Y + 1})
		}
		if !ok {
			continue
		}
		dirs := make([]geom.Direction, 4)
		for z := range dirs {
			dirs[z] = w.tg.Layers[z].Dir
		}
		blocked := func(z int, cellRect geom.Rect) bool {
			for _, r := range w.blocked[z] {
				if r.ContainsRect(cellRect) {
					return true
				}
			}
			return false
		}
		cell := 10 + rng.Intn(60)
		rf := NewRFuture(4, costs, targets, w.tg.Area, RFutureConfig{Cell: cell, Dirs: dirs, Blocked: blocked})
		cfg := w.config(costs, nil, nil)
		checked := 0
		for i := 0; i < len(verts) && checked < 40; i++ {
			u := verts[rng.Intn(len(verts))]
			if w.isBlocked(u.Z, u.X, u.Y) {
				continue
			}
			p := NodeSearch(cfg, []geom.Point3{u}, T)
			if p == nil {
				continue
			}
			checked++
			if got := rf.At(u.X, u.Y, u.Z); got > p.Cost {
				t.Fatalf("trial %d cell %d: inadmissible at %v: pi=%d > exact %d (beta=%v gamma=%v targets=%v)",
					trial, cell, u, got, p.Cost, costs.BetaJog, costs.GammaVia, T)
			}
		}
		if checked < 20 {
			t.Fatalf("trial %d: only %d vertices reached the targets %v, want at least 20", trial, checked, T)
		}
	}
}
