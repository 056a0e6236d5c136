//go:build scale

package scale

import (
	"context"
	"testing"

	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/verify"
)

// TestScaleSmoke routes a 10⁴-net chip end to end and requires the
// sampled verifier matrix to come back clean: conservation and
// connectivity exhaustive, spacing capped per plane with a recorded
// seed, the fast-grid differential strided. This is the order-of-
// magnitude gate below the 10⁵-net benchmark run (cmd/routebench
// -suite huge), sized to run under go test.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-net route skipped in -short mode")
	}
	const nets = 10000
	p := chip.ScaledParams("smoke10k", 777, nets)
	c := chip.Generate(p)
	if len(c.Nets) != nets {
		t.Fatalf("generated %d nets, want %d", len(c.Nets), nets)
	}
	res := core.RouteBonnRoute(context.Background(), c, core.Options{
		Seed: 777, Workers: 1,
	})
	rep := verify.Run(res, verify.Options{
		SpacingSampleCap:    200,
		SpacingSampleSeed:   777,
		FastGridStride:      8 * c.Deck.Layers[0].Pitch,
		FastGridTrackStride: 4,
	})
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if !rep.SpacingSampled {
		t.Error("a 10⁴-net chip should exceed the spacing sample cap")
	}
	if rep.ShapesChecked == 0 || rep.PairsChecked == 0 || rep.NetsChecked == 0 {
		t.Errorf("a verifier pass did no work: %+v", rep)
	}
	t.Logf("routed %d nets: netlength=%d vias=%d errors=%d unrouted=%d",
		nets, res.Metrics.Netlength, res.Metrics.Vias, res.Metrics.Errors, res.Metrics.Unrouted)
}

// TestShardedFlowBitIdentity runs the full flow — global sharded by
// congestion-region tiles at four workers vs. unsharded serial — on the
// same seed and requires every observable of the two results to be
// identical (the acceptance contract: fixed-seed bit-identity at any
// worker count with sharding on).
func TestShardedFlowBitIdentity(t *testing.T) {
	nets := 1500
	if testing.Short() {
		nets = 400
	}
	p := chip.ScaledParams("shardid", 4242, nets)
	a := core.RouteBonnRoute(context.Background(), chip.Generate(p),
		core.Options{Seed: 4242, Workers: 1})
	for _, shardTiles := range []int{1, 4} {
		b := core.RouteBonnRoute(context.Background(), chip.Generate(p),
			core.Options{Seed: 4242, Workers: 4, ShardTiles: shardTiles})
		for _, v := range verify.CompareResults(a, b) {
			t.Errorf("ShardTiles=%d: %s", shardTiles, v)
		}
	}
}

// TestScaleNotchPatchConservation pins a conservation bug found on the
// 1.5k-net scale chip: notch patching filled the gap between two shapes
// of net 1196 that overhang the chip's right edge (x = 26240) with a
// patch wholly outside the chip area. The shape grid cannot index metal
// out there and dropped it, while the net's bookkeeping still claimed
// it, so verify's conservation pass reported the patch missing. Halving
// the chip loses the overhanging geometry, so the full chip is the
// smallest reproducer.
func TestScaleNotchPatchConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("1.5k-net route skipped in -short mode")
	}
	c := chip.Generate(chip.ScaledParams("scale777", 777, 1500))
	res := core.RouteBonnRoute(context.Background(), c, core.Options{Seed: 1, Workers: 1})
	rep := verify.Run(res, verify.Options{
		SpacingSampleCap:    400,
		SpacingSampleSeed:   1,
		FastGridStride:      16 * c.Deck.Layers[0].Pitch,
		FastGridTrackStride: 8,
	})
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
}
