package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bonnroute"
	"bonnroute/internal/capest"
	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/detail"
	"bonnroute/internal/obs"
	"bonnroute/internal/pinaccess"
	"bonnroute/internal/sharing"
)

// traceChip is a chip the traced run rebuilds layer by layer, with the
// wall time and quality of the untraced bonnroute.Route run it must
// reproduce.
type traceChip struct {
	params chip.GenParams
	opt    bonnroute.Options
	wall   time.Duration
	q      quality
}

// layerRun is one chip's layer-by-layer measurement. Times are the wall
// time of each layer's own public calls; wall is the traced flow from
// the first call to the last, without the heap measurements between
// layers.
type layerRun struct {
	nets int
	wall time.Duration

	prep, pinaccess, capest, global, detail, cleanup, audit time.Duration

	catalogues, bbNodes  int
	prepHeap, detailHeap float64

	edges                        int
	oracleCalls, oracleReuses    int64
	exact, pc                    time.Duration
	rerouted, roundingViolations int
	searches, heapPops, labels   int
	ripups, failed, steals       int
	schedIdle                    time.Duration
	hitRate                      float64
	violatingNets, cleanupFixed  int
	q                            quality
}

// add accumulates o into l (sums over a workload's chips; hitRate is
// kept as a net-weighted sum and divided out by the caller).
func (l *layerRun) add(o *layerRun) {
	l.nets += o.nets
	l.wall += o.wall
	l.prep += o.prep
	l.pinaccess += o.pinaccess
	l.capest += o.capest
	l.global += o.global
	l.detail += o.detail
	l.cleanup += o.cleanup
	l.audit += o.audit
	l.catalogues += o.catalogues
	l.bbNodes += o.bbNodes
	l.prepHeap += o.prepHeap
	l.detailHeap += o.detailHeap
	l.edges += o.edges
	l.oracleCalls += o.oracleCalls
	l.oracleReuses += o.oracleReuses
	l.exact += o.exact
	l.pc += o.pc
	l.rerouted += o.rerouted
	l.roundingViolations += o.roundingViolations
	l.searches += o.searches
	l.heapPops += o.heapPops
	l.labels += o.labels
	l.ripups += o.ripups
	l.failed += o.failed
	l.steals += o.steals
	l.schedIdle += o.schedIdle
	l.hitRate += o.hitRate * float64(o.nets)
	l.violatingNets += o.violatingNets
	l.cleanupFixed += o.cleanupFixed
	l.q.add(o.q)
}

// heapMB forces a collection and returns the live heap in MiB; the
// pause it takes is added to *paused so it stays out of the layer times.
func heapMB(paused *time.Duration) float64 {
	t := time.Now()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	*paused += time.Since(t)
	return float64(m.HeapAlloc) / (1 << 20)
}

// routeLayered rebuilds core.RouteBonnRoute from the layers' public
// calls — detail.New, capest.Compute+ReduceForIntraTile,
// sharing.New(...).Run, Router.SetGlobalCorridors, Router.Route,
// core.Cleanup, Result.Finalize — timing each from outside. It then
// times the pin-access catalogues of prep on their own, once per
// circuit class, on the run's track graph, and checks that they are the
// catalogues prep built.
func routeLayered(ctx context.Context, name string, c *chip.Chip, opt core.Options, out *outcome) *layerRun {
	opt.SetDefaults()
	l := &layerRun{nets: len(c.Nets)}
	// Start from the heap state the untraced run started from: collected
	// and returned to the OS.
	debug.FreeOSMemory()
	var paused time.Duration
	h0 := heapMB(&paused)
	start := time.Now()

	t := time.Now()
	r := detail.New(c, detail.Options{Workers: opt.Workers, UsePFuture: opt.UsePFuture, FutureMode: opt.FutureMode})
	l.prep = time.Since(t)
	l.prepHeap = heapMB(&paused) - h0

	t = time.Now()
	g := core.BuildGlobalGraph(c, opt.TileTracks)
	capest.Compute(c, r.TG, g, capest.Params{})
	capest.ReduceForIntraTile(c, g)
	l.capest = time.Since(t)
	l.edges = g.NumEdges()

	t = time.Now()
	solver := sharing.New(g, core.NetSpecs(c, g), sharing.Options{
		Phases:          opt.GlobalPhases,
		Workers:         opt.Workers,
		Seed:            opt.Seed,
		PowerCap:        opt.PowerCap,
		ExactSteinerMax: opt.ExactSteinerMax,
		ShardTiles:      opt.ShardTiles,
	})
	sres := solver.Run(ctx)
	trees := make([][]int32, len(c.Nets))
	for ni := range sres.Nets {
		trees[ni] = sres.Nets[ni].Tree()
	}
	r.SetGlobalCorridors(g, trees)
	l.global = time.Since(t)
	l.oracleCalls, l.oracleReuses = sres.OracleCalls, sres.OracleReuses
	l.exact, l.pc = sres.ExactOracleTime, sres.PCOracleTime
	l.rerouted, l.roundingViolations = sres.Rerouted, sres.RoundingViolations

	h1 := heapMB(&paused)
	res := &core.Result{Flow: "BR+cleanup", Chip: c, Router: r}
	t = time.Now()
	res.Detail = r.Route(ctx)
	l.detail = time.Since(t)
	res.DetailTime = l.detail
	l.detailHeap = heapMB(&paused) - h1
	ss := res.Detail.SearchStats
	l.searches, l.heapPops, l.labels = ss.Searches, ss.HeapPops, ss.Labels
	l.ripups, l.failed = res.Detail.RipupEvents, res.Detail.Failed
	for _, rd := range res.Detail.RoundDetails {
		l.steals += rd.Sched.Steals
		l.schedIdle += rd.Sched.Idle
	}

	// Cleanup reports each pass as a span event; a memory sink on the
	// span collects them without touching the cleanup code.
	sink := obs.NewMemorySink()
	span := obs.New(sink).Start("cleanup")
	t = time.Now()
	res.CleanupFixed = core.Cleanup(obs.ContextWithSpan(ctx, span), r, 2)
	l.cleanup = time.Since(t)
	span.End()
	l.cleanupFixed = res.CleanupFixed
	for _, rec := range sink.Records() {
		if rec.Kind != obs.RecEvent || rec.Name != "cleanup.pass" {
			continue
		}
		for _, a := range rec.Attrs {
			if a.Key == "violating_nets" {
				l.violatingNets += int(a.Int)
			}
		}
	}

	t = time.Now()
	res.Finalize(ctx, time.Since(start)-paused)
	l.audit = time.Since(t)
	l.wall = time.Since(start) - paused
	l.hitRate = res.FastGridHitRate
	l.q = qualityOf(res)

	// Pin-access split: rebuild every circuit class's catalogue on the
	// same track graph, exactly as prep does, and time it.
	pitch := c.Deck.Layers[0].Pitch
	seen := map[string]bool{}
	t = time.Now()
	for ci := range c.Cells {
		key := pinaccess.ClassKey(c, ci, pitch)
		if seen[key] {
			continue
		}
		seen[key] = true
		cat := pinaccess.BuildCatalogue(c, r.TG, ci, pinaccess.Params{Radius: detailAccessRadius * pitch})
		l.catalogues++
		l.bbNodes += cat.BBNodes
	}
	l.pinaccess = time.Since(t)
	if as := r.AccessStats(); as.Catalogues != l.catalogues || as.BBNodes != l.bbNodes {
		out.fail("%s: prep built %d pin-access catalogues (%d B&B nodes), the split %d (%d)",
			name, as.Catalogues, as.BBNodes, l.catalogues, l.bbNodes)
	}
	return l
}

// detailAccessRadius is detail.Options.AccessRadius's default, in
// pitches: the radius prep builds its catalogues with.
const detailAccessRadius = 4

// traceLayers is the traced run: it rebuilds every chip of chips layer
// by layer, checks that the composition reproduces the untraced
// bonnroute.Route result exactly, routes a refNets-net growth-reference
// chip the same way, and reports the per-layer metrics. generate is the
// workload's chip-generation time (its setup median).
func traceLayers(ctx context.Context, cfg *config, chips []traceChip, generate float64, out *outcome) error {
	var sum layerRun
	var untracedWall time.Duration
	for _, tc := range chips {
		c := chip.Generate(tc.params)
		l := routeLayered(ctx, tc.params.Name, c, tc.opt, out)
		if l.q != tc.q {
			out.fail("%s: layer-by-layer flow gives %+v, bonnroute.Route gave %+v", tc.params.Name, l.q, tc.q)
		}
		fmt.Fprintf(os.Stderr, "[trace] %-10s prep %.2fs (pin access %.2fs) capest %.2fs global %.2fs detail %.2fs cleanup %.2fs audit %.2fs; traced %.2fs, untraced %.2fs\n",
			tc.params.Name, l.prep.Seconds(), l.pinaccess.Seconds(), l.capest.Seconds(), l.global.Seconds(),
			l.detail.Seconds(), l.cleanup.Seconds(), l.audit.Seconds(), l.wall.Seconds(), tc.wall.Seconds())
		sum.add(l)
		untracedWall += tc.wall
	}

	// Growth reference: a refNets-net scale-tier chip, routed the same
	// way. Its per-chip layer times against the workload's give each
	// layer's growth exponent.
	rp := chip.ScaledParams(fmt.Sprintf("ref%d", cfg.refNets), scaleChipSeed, cfg.refNets)
	rc := chip.Generate(rp)
	ref := routeLayered(ctx, rp.Name, rc, core.Options{Workers: workers, Seed: deriveSeed(cfg.seed, 3), ShardTiles: 8}, out)
	fmt.Fprintf(os.Stderr, "[trace] %-10s nets=%d prep %.2fs capest %.2fs global %.2fs detail %.2fs cleanup %.2fs audit %.2fs\n",
		rp.Name, ref.nets, ref.prep.Seconds(), ref.capest.Seconds(), ref.global.Seconds(),
		ref.detail.Seconds(), ref.cleanup.Seconds(), ref.audit.Seconds())

	k := float64(len(chips))
	perChip := float64(sum.nets) / k
	growth := func(refT, wT time.Duration) float64 {
		return growthExp(float64(ref.nets), refT.Seconds(), perChip, wT.Seconds()/k)
	}

	v := out.values
	v["chip.generate_s"] = generate
	v["prep.busy_s"] = sum.prep.Seconds()
	v["prep.heap_mb"] = sum.prepHeap
	v["prep.growth_exp"] = growth(ref.prep, sum.prep)
	v["pinaccess.busy_s"] = sum.pinaccess.Seconds()
	v["pinaccess.prep_share"] = ratio(sum.pinaccess.Seconds(), sum.prep.Seconds())
	v["pinaccess.catalogues"] = float64(sum.catalogues)
	v["pinaccess.bb_nodes"] = float64(sum.bbNodes)
	v["pinaccess.growth_exp"] = growth(ref.pinaccess, sum.pinaccess)

	v["capest.busy_s"] = sum.capest.Seconds()
	v["capest.edges"] = float64(sum.edges)
	v["capest.growth_exp"] = growth(ref.capest, sum.capest)

	v["global.busy_s"] = sum.global.Seconds()
	v["global.oracle_calls"] = float64(sum.oracleCalls)
	v["global.oracle_reuse_ratio"] = ratio(float64(sum.oracleReuses), float64(sum.oracleCalls+sum.oracleReuses))
	v["global.rerouted"] = float64(sum.rerouted)
	v["global.rounding_violations"] = float64(sum.roundingViolations)
	v["global.growth_exp"] = growth(ref.global, sum.global)
	v["steiner.exact_s"] = sum.exact.Seconds()
	v["steiner.pc_s"] = sum.pc.Seconds()

	v["detail.busy_s"] = sum.detail.Seconds()
	v["detail.searches"] = float64(sum.searches)
	v["detail.heap_pops"] = float64(sum.heapPops)
	v["detail.labels"] = float64(sum.labels)
	v["detail.heap_pops_per_search"] = ratio(float64(sum.heapPops), float64(sum.searches))
	v["detail.ripups"] = float64(sum.ripups)
	v["detail.failed"] = float64(sum.failed)
	v["detail.sched_idle_s"] = sum.schedIdle.Seconds()
	v["detail.steals"] = float64(sum.steals)
	v["detail.heap_mb"] = sum.detailHeap
	v["detail.growth_exp"] = growth(ref.detail, sum.detail)
	v["fastgrid.hit_rate"] = ratio(sum.hitRate, float64(sum.nets))

	v["cleanup.busy_s"] = sum.cleanup.Seconds()
	v["cleanup.violating_nets"] = float64(sum.violatingNets)
	v["cleanup.fixed"] = float64(sum.cleanupFixed)
	v["cleanup.fix_ratio"] = ratio(float64(sum.cleanupFixed), float64(sum.violatingNets))
	v["cleanup.growth_exp"] = growth(ref.cleanup, sum.cleanup)

	v["audit.busy_s"] = sum.audit.Seconds()
	v["audit.errors"] = float64(sum.q.drcErrors)
	v["audit.growth_exp"] = growth(ref.audit, sum.audit)

	layers := sum.prep + sum.capest + sum.global + sum.detail + sum.cleanup + sum.audit
	v["flow.unrouted_nets"] = float64(sum.q.unrouted)
	v["flow.unattributed_s"] = (untracedWall - layers).Seconds()
	v["trace.overhead_s"] = (sum.wall - untracedWall).Seconds()

	return nil
}
