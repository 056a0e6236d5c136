package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
	"bonnroute/internal/verify"
)

// ecoNote explains what the artifact compares: both paths start from the
// same finished baseline routing and the same mutated chip; "incremental"
// is incremental.Reroute (replay clean nets, re-route the dirty set),
// "full" is core.RouteBonnRoute from scratch on the mutated chip.
const ecoNote = "incremental_ms = incremental.Reroute wall time (apply+prep+dirty+replay+" +
	"restricted global+detail+cleanup); full_ms = from-scratch RouteBonnRoute on the same " +
	"mutated chip; speedup = full_ms / incremental_ms; quality fields come from the same " +
	"verifier both flows face in the equivalence suite"

// ecoStageJSON is the incremental run's stage breakdown (milliseconds).
type ecoStageJSON struct {
	ApplyMS   float64 `json:"apply_ms"`
	PrepMS    float64 `json:"prep_ms"`
	DirtyMS   float64 `json:"dirty_ms"`
	ReplayMS  float64 `json:"replay_ms"`
	GlobalMS  float64 `json:"global_ms"`
	DetailMS  float64 `json:"detail_ms"`
	CleanupMS float64 `json:"cleanup_ms"`
	TotalMS   float64 `json:"total_ms"`
}

// ecoQualityJSON is one flow's quality on the mutated chip.
type ecoQualityJSON struct {
	Netlength  int64 `json:"netlength"`
	Vias       int   `json:"vias"`
	Errors     int   `json:"errors"`
	Unrouted   int   `json:"unrouted"`
	Violations int   `json:"verify_violations"`
}

// ecoChipJSON is one chip's incremental-vs-full comparison.
type ecoChipJSON struct {
	Name string `json:"name"`
	Nets int    `json:"nets"`
	// Delta size (the ECO) and its fraction of the netlist.
	DeltaAddNets   int     `json:"delta_add_nets"`
	DeltaRemove    int     `json:"delta_remove_nets"`
	DeltaMovePins  int     `json:"delta_move_pins"`
	DeltaBlockages int     `json:"delta_blockages"`
	DeltaFraction  float64 `json:"delta_fraction"`
	// What the engine decided to redo.
	DirtyNets     int     `json:"dirty_nets"`
	DirtyFraction float64 `json:"dirty_fraction"`
	// DirtyByRule: added, moved pin, previously unrouted, access drift,
	// impact region (DESIGN.md §10).
	DirtyByRule   [5]int `json:"dirty_by_rule"`
	ReplayedNets  int    `json:"replayed_nets"`
	RepricedEdges int    `json:"repriced_edges"`
	FellBack      bool   `json:"fell_back"`

	Incremental  ecoStageJSON   `json:"incremental"`
	FullMS       float64        `json:"full_ms"`
	FullGlobalMS float64        `json:"full_global_ms"`
	FullDetailMS float64        `json:"full_detail_ms"`
	Speedup      float64        `json:"speedup"`
	IncQuality   ecoQualityJSON `json:"incremental_quality"`
	FullQuality  ecoQualityJSON `json:"full_quality"`
}

// ecoJSON is the -eco -bench-json document (BENCH_eco.json).
type ecoJSON struct {
	Suite      string        `json:"suite"`
	Workers    int           `json:"workers"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Note       string        `json:"note"`
	Chips      []ecoChipJSON `json:"chips"`
	MinSpeedup float64       `json:"min_speedup"`
}

// ecoDelta sizes a small ECO for an n-net chip: a few percent of the
// netlist added and removed, one pin move, one blockage — well under the
// 10% delta the incremental engine is built for.
func ecoDelta(n int) incremental.GenConfig {
	few := max(1, n/50)
	return incremental.GenConfig{
		AddNets: few, RemoveNets: few, MovePins: 1, AddBlockages: 1,
	}
}

func ecoQuality(res *core.Result) ecoQualityJSON {
	rep := verify.Run(res, verify.Options{})
	return ecoQualityJSON{
		Netlength:  res.Metrics.Netlength,
		Vias:       res.Metrics.Vias,
		Errors:     res.Metrics.Errors,
		Unrouted:   res.Metrics.Unrouted,
		Violations: len(rep.Violations),
	}
}

// ecoBench routes every suite chip, applies a small random delta, and
// times incremental.Reroute against a from-scratch run of the same
// mutated chip. Exits non-zero if either flow fails verification or the
// incremental flow comes out slower than from scratch.
func ecoBench(suiteName string, params []chip.GenParams, workers int) *ecoJSON {
	doc := &ecoJSON{
		Suite:      suiteName,
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Note:       ecoNote,
	}
	fmt.Println("=== ECO: incremental vs from-scratch rerouting ===")
	for _, p := range params {
		fmt.Fprintf(os.Stderr, "[eco] %s baseline...\n", p.Name)
		opt := core.Options{Workers: workers, Seed: p.Seed, Tracer: tracer}
		prev := core.RouteBonnRoute(runCtx, chip.Generate(p), opt)

		cfg := ecoDelta(len(prev.Chip.Nets))
		delta := incremental.RandomDelta(prev.Chip, p.Seed*7+5, cfg)

		fmt.Fprintf(os.Stderr, "[eco] %s incremental...\n", p.Name)
		inc, st, err := incremental.Reroute(runCtx, prev, delta, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eco: %s: %v\n", p.Name, err)
			os.Exit(1)
		}

		fmt.Fprintf(os.Stderr, "[eco] %s from scratch...\n", p.Name)
		fullStart := time.Now()
		full := core.RouteBonnRoute(runCtx, inc.Chip, opt)
		fullTime := time.Since(fullStart)

		ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
		cj := ecoChipJSON{
			Name:           p.Name,
			Nets:           len(inc.Chip.Nets),
			DeltaAddNets:   len(delta.AddNets),
			DeltaRemove:    len(delta.RemoveNets),
			DeltaMovePins:  len(delta.MovePins),
			DeltaBlockages: len(delta.AddBlockages),
			DirtyNets:      st.DirtyNets,
			DirtyFraction:  st.DirtyFraction,
			DirtyByRule:    st.DirtyByRule,
			ReplayedNets:   st.ReplayedNets,
			RepricedEdges:  st.RepricedEdges,
			FellBack:       st.FellBack,
			Incremental: ecoStageJSON{
				ApplyMS: ms(st.ApplyTime), PrepMS: ms(st.PrepTime),
				DirtyMS: ms(st.DirtyTime), ReplayMS: ms(st.ReplayTime),
				GlobalMS: ms(st.GlobalTime), DetailMS: ms(st.DetailTime),
				CleanupMS: ms(st.CleanupTime), TotalMS: ms(st.Total),
			},
			FullMS:       ms(fullTime),
			FullDetailMS: ms(full.DetailTime),
			IncQuality:   ecoQuality(inc),
			FullQuality:  ecoQuality(full),
		}
		if full.Global != nil {
			cj.FullGlobalMS = ms(full.Global.Total)
		}
		cj.DeltaFraction = float64(len(delta.AddNets)+len(delta.RemoveNets)+len(delta.MovePins)) /
			float64(len(prev.Chip.Nets))
		if cj.Incremental.TotalMS > 0 {
			cj.Speedup = cj.FullMS / cj.Incremental.TotalMS
		}
		if cj.IncQuality.Violations > 0 || cj.FullQuality.Violations > 0 {
			fmt.Fprintf(os.Stderr, "eco: %s: verification failed (incremental %d, full %d violations)\n",
				p.Name, cj.IncQuality.Violations, cj.FullQuality.Violations)
			os.Exit(1)
		}
		if doc.MinSpeedup == 0 || cj.Speedup < doc.MinSpeedup {
			doc.MinSpeedup = cj.Speedup
		}
		doc.Chips = append(doc.Chips, cj)
	}
	printEco(doc)
	if doc.MinSpeedup < 1 {
		fmt.Fprintf(os.Stderr, "eco: incremental slower than from scratch (%.2fx min speedup)\n",
			doc.MinSpeedup)
		os.Exit(1)
	}
	return doc
}

func printEco(doc *ecoJSON) {
	fmt.Printf("%-8s %5s %7s %7s %8s %14s %10s %8s %9s %9s\n",
		"chip", "nets", "delta%", "dirty%", "replayed", "incremental_ms", "full_ms", "speedup", "inc_unrtd", "full_unrtd")
	for _, c := range doc.Chips {
		fb := ""
		if c.FellBack {
			fb = " (fallback)"
		}
		fmt.Printf("%-8s %5d %6.1f%% %6.1f%% %8d %14.1f %10.1f %7.2fx %9d %9d%s\n",
			c.Name, c.Nets, 100*c.DeltaFraction, 100*c.DirtyFraction, c.ReplayedNets,
			c.Incremental.TotalMS, c.FullMS, c.Speedup,
			c.IncQuality.Unrouted, c.FullQuality.Unrouted, fb)
		s := c.Incremental
		fmt.Printf("%-8s   stages: apply %.1f  prep %.1f  dirty %.1f  replay %.1f  global %.1f  detail %.1f  cleanup %.1f\n",
			"", s.ApplyMS, s.PrepMS, s.DirtyMS, s.ReplayMS, s.GlobalMS, s.DetailMS, s.CleanupMS)
		fmt.Printf("%-8s   dirty by rule: added %d  moved %d  unrouted %d  access %d  impact %d   full: global %.1f  detail %.1f\n",
			"", c.DirtyByRule[0], c.DirtyByRule[1], c.DirtyByRule[2], c.DirtyByRule[3], c.DirtyByRule[4],
			c.FullGlobalMS, c.FullDetailMS)
	}
	fmt.Printf("min speedup: %.2fx\n\n", doc.MinSpeedup)
}
