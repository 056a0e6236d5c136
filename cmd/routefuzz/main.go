// Command routefuzz sweeps the full BonnRoute flow over a matrix of
// seeded random scenarios and runs every independent verifier on each
// result: shape conservation, brute-force diff-net spacing,
// union-find connectivity, global capacity conservation, the
// fast-grid-vs-rule-checker differential, and a same-seed
// different-worker-count determinism double-run.
//
// On the first failing scenario it shrinks the reproducer — halving
// the net count while the failure persists, then the placement grid —
// and prints the minimal scenario as a ready-to-paste Go test before
// exiting non-zero.
//
// With -eco each scenario additionally derives a seeded random ECO
// delta (nets added/removed, a pin moved, a blockage dropped in) and
// runs the differential equivalence check: the delta applied
// incrementally (incremental.Reroute) and from scratch must both clear
// every verifier pass with identical opens/overflow counts, and the
// incremental route must be bit-identical across worker counts. The
// shrinker then minimizes ECO scenarios too: after the chip, it drops
// delta mutation classes one by one while the failure persists.
//
// Before the scenario sweep, a seeded Steiner-oracle differential slice
// (-steiner-diff, 0 disables) proves the exact goal-oriented oracle
// optimal against an independent reference solver and never costlier
// than Path Composition on random small instances.
//
// Usage:
//
//	routefuzz [-seeds N] [-base-seed N] [-rows N] [-cols N] [-nets N]
//	          [-layers N] [-workers N] [-eco] [-skip-fastgrid]
//	          [-steiner-diff N] [-v]
//
// Every scenario derives its geometry deterministically from its seed,
// so a failure report's seed is a complete reproducer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
	"bonnroute/internal/steiner"
	"bonnroute/internal/verify"
)

type scenario struct {
	params   chip.GenParams
	workersA int
	workersB int
	// eco enables the differential ECO equivalence check; ecoSeed
	// derives the delta and ecoCfg sizes it (negative fields drop a
	// mutation class — the shrinker's knob).
	eco     bool
	ecoSeed int64
	ecoCfg  incremental.GenConfig
	// scale enables the sharded-vs-unsharded equivalence slice: the
	// same chip routed unsharded at one worker and sharded (shardTiles
	// congestion-region tiles) at workersB must be bit-identical, and
	// the unsharded result must clear the sampled verifier matrix.
	scale      bool
	shardTiles int
}

func main() {
	var (
		seeds    = flag.Int("seeds", 10, "number of scenarios (one seed each)")
		baseSeed = flag.Int64("base-seed", 1000, "seed of the first scenario")
		rows     = flag.Int("rows", 5, "max placement rows")
		cols     = flag.Int("cols", 16, "max placement columns")
		nets     = flag.Int("nets", 48, "max number of nets")
		layers   = flag.Int("layers", 6, "max wiring layers")
		workers  = flag.Int("workers", 4, "worker count of the determinism double run")
		eco      = flag.Bool("eco", false, "fuzz ECO deltas: differential incremental-vs-scratch equivalence")
		scale    = flag.Bool("scale", false, "fuzz the scale tier: sharded-vs-unsharded global-routing bit-identity plus the sampled verifier matrix")
		skipFG   = flag.Bool("skip-fastgrid", false, "skip the fast-grid differential pass")
		stDiff   = flag.Int("steiner-diff", 64, "seeded Steiner-oracle differential instances run before the scenarios (0 disables)")
		verbose  = flag.Bool("v", false, "print per-scenario pass counters")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The Steiner oracle differential slice runs first: cheap seeded
	// instances proving the exact oracle optimal (vs. an independent
	// reference) and never costlier than Path Composition. The seed is
	// derived from -base-seed, so a failure report is self-reproducing
	// via RunDifferential(seed, n).
	if *stDiff > 0 {
		start := time.Now()
		if err := steiner.RunDifferential(*baseSeed, *stDiff); err != nil {
			fmt.Printf("steiner differential seed=%d n=%d: FAIL\n  %v\n", *baseSeed, *stDiff, err)
			os.Exit(1)
		}
		fmt.Printf("steiner differential seed=%d: %d instances clean (%.1fs)\n",
			*baseSeed, *stDiff, time.Since(start).Seconds())
	}

	failures := 0
	for i := 0; i < *seeds; i++ {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "routefuzz: interrupted")
			os.Exit(1)
		}
		sc := makeScenario(*baseSeed+int64(i), i, *rows, *cols, *nets, *layers, *workers)
		if *eco {
			sc.eco = true
			sc.ecoSeed = sc.params.Seed*3 + 1
		}
		if *scale {
			sc.scale = true
			sc.shardTiles = 1 + int(sc.params.Seed)%8
		}
		start := time.Now()
		viol, rep := runScenario(ctx, sc, *skipFG)
		if len(viol) == 0 {
			status := "ok"
			if *verbose && rep != nil {
				status = fmt.Sprintf(
					"ok  shapes=%d pairs=%d nets=%d edges=%d samples=%d",
					rep.ShapesChecked, rep.PairsChecked, rep.NetsChecked,
					rep.EdgesChecked, rep.SamplesChecked)
			}
			fmt.Printf("scenario %2d seed=%d %dx%d nets=%d layers=%d: %s (%.1fs)\n",
				i, sc.params.Seed, sc.params.Rows, sc.params.Cols,
				sc.params.NumNets, sc.params.NumLayers, status,
				time.Since(start).Seconds())
			continue
		}
		failures++
		fmt.Printf("scenario %2d seed=%d %dx%d nets=%d layers=%d: FAIL\n",
			i, sc.params.Seed, sc.params.Rows, sc.params.Cols,
			sc.params.NumNets, sc.params.NumLayers)
		for _, v := range viol {
			fmt.Printf("  %s\n", v)
		}
		min := shrink(ctx, sc, *skipFG)
		printReproducer(min)
		break
	}
	if failures > 0 {
		os.Exit(1)
	}
	fmt.Printf("routefuzz: %d scenarios clean\n", *seeds)
}

// makeScenario derives one scenario from its seed: sizes cycle through
// the allowed ranges so the sweep covers small/large grids, differing
// layer counts (exercising the pitch-doubling upper deck), and both
// worker pairings.
func makeScenario(seed int64, i, maxRows, maxCols, maxNets, maxLayers, workers int) scenario {
	rows := 3 + int(seed)%max(1, maxRows-2)
	cols := 8 + int(seed*7)%max(1, maxCols-7)
	nets := 16 + int(seed*13)%max(1, maxNets-15)
	layers := 4
	if maxLayers > 4 && i%2 == 1 {
		layers = maxLayers
	}
	stripes := 0
	if i%3 == 0 {
		stripes = 6
	}
	return scenario{
		params: chip.GenParams{
			Seed: seed, Rows: rows, Cols: cols, NumNets: nets,
			NumLayers: layers, LocalityRadius: 3 + i%5,
			PowerStripePeriod: stripes,
		},
		workersA: 1,
		workersB: workers,
	}
}

// runScenario routes the scenario once, applies every in-process
// verifier pass, then performs the determinism double-run. In ECO mode
// it instead runs the differential equivalence check (which verifies
// both the incremental and the from-scratch result).
func runScenario(ctx context.Context, sc scenario, skipFG bool) ([]verify.Violation, *verify.Report) {
	if sc.eco {
		viol := verify.ECOEquivalence(ctx, sc.params,
			core.Options{Seed: sc.params.Seed, Workers: sc.workersA},
			verify.ECOOptions{
				DeltaSeed:    sc.ecoSeed,
				Gen:          sc.ecoCfg,
				WorkersB:     sc.workersB,
				SkipFastGrid: skipFG,
			})
		return viol, nil
	}
	if sc.scale {
		return runScaleScenario(ctx, sc, skipFG)
	}
	c := chip.Generate(sc.params)
	res := core.RouteBonnRoute(ctx, c, core.Options{Seed: sc.params.Seed, Workers: sc.workersA})
	rep := verify.Run(res, verify.Options{SkipFastGrid: skipFG})
	viol := rep.Violations
	viol = append(viol, verify.Determinism(ctx, sc.params,
		core.Options{Seed: sc.params.Seed}, sc.workersA, sc.workersB)...)
	return viol, rep
}

// runScaleScenario is the scale-tier slice: the identical seed routed
// unsharded serial and sharded parallel must produce bit-identical
// results (the congestion-region sharding is pure work decomposition),
// and the unsharded result must clear the verifier with the sampled
// spacing mode engaged — the same seeded sampling the huge benchmark
// records in its artifact.
func runScaleScenario(ctx context.Context, sc scenario, skipFG bool) ([]verify.Violation, *verify.Report) {
	a := core.RouteBonnRoute(ctx, chip.Generate(sc.params),
		core.Options{Seed: sc.params.Seed, Workers: sc.workersA})
	b := core.RouteBonnRoute(ctx, chip.Generate(sc.params),
		core.Options{Seed: sc.params.Seed, Workers: sc.workersB, ShardTiles: sc.shardTiles})
	viol := verify.CompareResults(a, b)
	for i := range viol {
		viol[i].Detail = fmt.Sprintf("unsharded/w%d vs ShardTiles=%d/w%d: %s",
			sc.workersA, sc.shardTiles, sc.workersB, viol[i].Detail)
	}
	rep := verify.Run(a, verify.Options{
		SkipFastGrid:      skipFG,
		SpacingSampleCap:  64,
		SpacingSampleSeed: sc.params.Seed,
	})
	return append(viol, rep.Violations...), rep
}

// shrink reduces a failing scenario while it still fails: first halve
// the net count, then the placement grid. The failure predicate is the
// full verifier battery, so the minimal scenario fails for the same
// class of reason.
func shrink(ctx context.Context, sc scenario, skipFG bool) scenario {
	fails := func(s scenario) bool {
		if ctx.Err() != nil {
			return false
		}
		v, _ := runScenario(ctx, s, skipFG)
		return len(v) > 0
	}
	fmt.Println("shrinking...")
	for sc.params.NumNets > 2 {
		cand := sc
		cand.params.NumNets = sc.params.NumNets / 2
		if !fails(cand) {
			break
		}
		sc = cand
		fmt.Printf("  nets -> %d still fails\n", sc.params.NumNets)
	}
	for sc.params.Rows > 2 || sc.params.Cols > 4 {
		cand := sc
		cand.params.Rows = max(2, sc.params.Rows/2)
		cand.params.Cols = max(4, sc.params.Cols/2)
		if cand.params == sc.params || !fails(cand) {
			break
		}
		sc = cand
		fmt.Printf("  grid -> %dx%d still fails\n", sc.params.Rows, sc.params.Cols)
	}
	// ECO scenarios shrink further: drop whole delta mutation classes
	// (negative GenConfig fields generate none of that class) while the
	// equivalence failure persists.
	if sc.eco {
		drop := []struct {
			name  string
			apply func(*incremental.GenConfig)
		}{
			{"blockages", func(g *incremental.GenConfig) { g.AddBlockages = -1 }},
			{"pin moves", func(g *incremental.GenConfig) { g.MovePins = -1 }},
			{"added nets", func(g *incremental.GenConfig) { g.AddNets = -1 }},
			{"removed nets", func(g *incremental.GenConfig) { g.RemoveNets = -1 }},
		}
		for _, d := range drop {
			cand := sc
			d.apply(&cand.ecoCfg)
			if fails(cand) {
				sc = cand
				fmt.Printf("  delta without %s still fails\n", d.name)
			}
		}
	}
	return sc
}

// printReproducer emits the minimal failing scenario as a Go test the
// developer can paste into internal/verify and run directly.
func printReproducer(sc scenario) {
	if sc.eco {
		fmt.Println("\nminimal ECO reproducer (paste into internal/verify):")
		fmt.Printf(`
func TestFuzzEcoRepro(t *testing.T) {
	viol := ECOEquivalence(context.Background(), chip.GenParams{
		Seed: %d, Rows: %d, Cols: %d, NumNets: %d,
		NumLayers: %d, LocalityRadius: %d, PowerStripePeriod: %d,
	}, core.Options{Seed: %d, Workers: %d}, ECOOptions{
		DeltaSeed: %d,
		Gen: incremental.GenConfig{AddNets: %d, RemoveNets: %d, MovePins: %d, AddBlockages: %d},
		WorkersB:  %d,
	})
	for _, v := range viol {
		t.Errorf("%%s", v)
	}
}
`, sc.params.Seed, sc.params.Rows, sc.params.Cols, sc.params.NumNets,
			sc.params.NumLayers, sc.params.LocalityRadius, sc.params.PowerStripePeriod,
			sc.params.Seed, sc.workersA,
			sc.ecoSeed,
			sc.ecoCfg.AddNets, sc.ecoCfg.RemoveNets, sc.ecoCfg.MovePins, sc.ecoCfg.AddBlockages,
			sc.workersB)
		return
	}
	if sc.scale {
		fmt.Println("\nminimal scale reproducer (paste into internal/verify):")
		fmt.Printf(`
func TestFuzzScaleRepro(t *testing.T) {
	params := chip.GenParams{
		Seed: %d, Rows: %d, Cols: %d, NumNets: %d,
		NumLayers: %d, LocalityRadius: %d, PowerStripePeriod: %d,
	}
	a := core.RouteBonnRoute(context.Background(), chip.Generate(params),
		core.Options{Seed: %d, Workers: %d})
	b := core.RouteBonnRoute(context.Background(), chip.Generate(params),
		core.Options{Seed: %d, Workers: %d, ShardTiles: %d})
	for _, v := range CompareResults(a, b) {
		t.Errorf("%%s", v)
	}
	for _, v := range Run(a, Options{SpacingSampleCap: 64, SpacingSampleSeed: %d}).Violations {
		t.Errorf("%%s", v)
	}
}
`, sc.params.Seed, sc.params.Rows, sc.params.Cols, sc.params.NumNets,
			sc.params.NumLayers, sc.params.LocalityRadius, sc.params.PowerStripePeriod,
			sc.params.Seed, sc.workersA,
			sc.params.Seed, sc.workersB, sc.shardTiles,
			sc.params.Seed)
		return
	}
	fmt.Println("\nminimal reproducer (paste into internal/verify):")
	fmt.Printf(`
func TestFuzzRepro(t *testing.T) {
	params := chip.GenParams{
		Seed: %d, Rows: %d, Cols: %d, NumNets: %d,
		NumLayers: %d, LocalityRadius: %d, PowerStripePeriod: %d,
	}
	res := core.RouteBonnRoute(context.Background(), chip.Generate(params),
		core.Options{Seed: %d, Workers: %d})
	for _, v := range Run(res, Options{}).Violations {
		t.Errorf("%%s", v)
	}
	for _, v := range Determinism(context.Background(), params,
		core.Options{Seed: %d}, %d, %d) {
		t.Errorf("%%s", v)
	}
}
`, sc.params.Seed, sc.params.Rows, sc.params.Cols, sc.params.NumNets,
		sc.params.NumLayers, sc.params.LocalityRadius, sc.params.PowerStripePeriod,
		sc.params.Seed, sc.workersA,
		sc.params.Seed, sc.workersA, sc.workersB)
}
