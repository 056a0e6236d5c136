package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/verify"
)

// setupReps is how often a flow workload generates its chips; setup_s
// is the median. Generation takes milliseconds, so many repetitions
// cost nothing and steady the median.
const setupReps = 21

// flowChip is one chip of a flow workload and the options it is routed
// with.
type flowChip struct {
	params chip.GenParams
	opt    bonnroute.Options
	// sampled verifies spacing on a seeded sample of shapes, as
	// routebench's scale tier does; the quadratic pass would dominate
	// the run at this size.
	sampled bool
}

// quality is the part of a result the composition check compares.
type quality struct {
	netlength           int64
	vias, scenic25      int
	drcErrors, unrouted int
}

func qualityOf(res *bonnroute.Result) quality {
	m := res.Metrics
	return quality{m.Netlength, m.Vias, m.Scenic25, m.Errors, m.Unrouted}
}

func (q *quality) add(o quality) {
	q.netlength += o.netlength
	q.vias += o.vias
	q.scenic25 += o.scenic25
	q.drcErrors += o.drcErrors
	q.unrouted += o.unrouted
}

func runFlowMedium(ctx context.Context, cfg *config, out *outcome) error {
	// The traced run reports no end-to-end metrics, so it routes only the
	// set it splits into layers: the three chip shapes once.
	sets := cfg.mediumSets
	if cfg.trace {
		sets = 1
	}
	var chips []flowChip
	for set := 0; set < sets; set++ {
		for i, p := range cfg.medium {
			p.Seed += 100 * int64(set)
			p.Name = fmt.Sprintf("%s-s%d", p.Name, set)
			chips = append(chips, flowChip{
				params: p,
				opt:    bonnroute.Options{Workers: workers, Seed: deriveSeed(cfg.seed, 1, int64(set), int64(i))},
			})
		}
	}
	return runFlow(ctx, cfg, chips, len(cfg.medium), out)
}

func runFlowScale(ctx context.Context, cfg *config, out *outcome) error {
	seed := deriveSeed(cfg.seed, 2)
	p := chip.ScaledParams(fmt.Sprintf("scale%d", cfg.scaleNets), scaleChipSeed, cfg.scaleNets)
	chips := []flowChip{{
		params:  p,
		opt:     bonnroute.Options{Workers: workers, Seed: seed, ShardTiles: 8},
		sampled: true,
	}}
	return runFlow(ctx, cfg, chips, 1, out)
}

// runFlow generates the chips (setup), routes each with bonnroute.Route
// (route_s), and verifies every result. The first `split` chips are the
// ones a traced run rebuilds layer by layer.
func runFlow(ctx context.Context, cfg *config, chips []flowChip, split int, out *outcome) error {
	var gen []float64
	var cs []*chip.Chip
	for rep := 0; rep < setupReps; rep++ {
		cs = cs[:0]
		runtime.GC()
		t := time.Now()
		for _, fc := range chips {
			cs = append(cs, chip.Generate(fc.params))
		}
		gen = append(gen, time.Since(t).Seconds())
	}
	setup := median(gen)

	var traced []traceChip
	var flow time.Duration
	var sum quality
	nets := 0
	for i, fc := range chips {
		c := cs[i]
		cs[i] = nil // the result holds the chip; drop it with the result
		// Every route starts from a collected heap returned to the OS,
		// as in a fresh process, whatever the chip before it left.
		debug.FreeOSMemory()
		t := time.Now()
		res := bonnroute.Route(ctx, c, bonnroute.WithOptions(fc.opt))
		wall := time.Since(t)
		flow += wall
		ok := checkFlow(c, res, fc, out)
		out.op(ok)
		q := qualityOf(res)
		if i < split {
			traced = append(traced, traceChip{params: fc.params, opt: fc.opt, wall: wall, q: q})
		}
		sum.add(q)
		nets += len(c.Nets)
		fmt.Fprintf(os.Stderr, "[flow] %-10s nets=%4d route=%6.2fs netlength=%d vias=%d scenic25=%d errors=%d unrouted=%d\n",
			fc.params.Name, len(c.Nets), wall.Seconds(), q.netlength, q.vias, q.scenic25, q.drcErrors, q.unrouted)
	}

	v := out.values
	v["setup_s"] = setup
	v["route_s"] = flow.Seconds()
	v["peak_rss_mb"] = peakRSSMB()
	v["netlength"] = float64(sum.netlength)
	v["vias"] = float64(sum.vias)
	v["scenic25"] = float64(sum.scenic25)
	v["drc_errors"] = float64(sum.drcErrors)
	v["success_frac"] = 1 - ratio(float64(sum.unrouted), float64(nets))
	if !cfg.trace {
		return nil
	}
	if err := traceLayers(ctx, cfg, traced, setup, out); err != nil {
		return err
	}
	// The flow runs no ECO: a short session on the service chip, with
	// just enough reroutes for a tail, measures those layers.
	e, err := ecoSession(ctx, cfg.svc, cfg.seed, 1, tailBeyond+1, 1, out)
	if err != nil {
		return err
	}
	return e.layerMetrics(out.values)
}

// checkFlow is the output gate of one flow result: it must be complete
// and pass the independent verifier with zero violations.
func checkFlow(c *chip.Chip, res *bonnroute.Result, fc flowChip, out *outcome) bool {
	if res.Cancelled {
		out.fail("%s: flow reported cancelled", fc.params.Name)
		return false
	}
	var vopt verify.Options
	if fc.sampled {
		vopt = verify.Options{
			SpacingSampleCap:    400,
			SpacingSampleSeed:   fc.opt.Seed,
			FastGridStride:      16 * c.Deck.Layers[0].Pitch,
			FastGridTrackStride: 8,
		}
	}
	rep := verify.Run(res, vopt)
	if rep.SpacingSampled {
		fmt.Fprintf(os.Stderr, "[verify] %s: spacing sampled, cap %d, seed %d\n",
			fc.params.Name, vopt.SpacingSampleCap, rep.SpacingSampleSeed)
	}
	if !rep.OK() {
		for i, viol := range rep.Violations {
			if i == 8 {
				break
			}
			out.fail("%s: verify: %s", fc.params.Name, viol.String())
		}
		out.fail("%s: %d verifier violations", fc.params.Name, len(rep.Violations))
		return false
	}
	return true
}
