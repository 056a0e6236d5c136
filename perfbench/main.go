// Command perfbench is the repository's benchmark. It runs one named
// workload through the router's public entry points (bonnroute.Route,
// and the routing service over loopback HTTP), checks every output, and
// prints one JSON result line:
//
//	bash perfbench/run.sh --workload flow-medium --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload and then rebuilds the BonnRoute flow from the layers' own
// public calls on the workload's chips, reporting per-layer metrics;
// the traced run of a flow workload also opens a short ECO session so
// the ECO and service layers are measured in every traced run.
// The chips are fixed; --seed drives the routing seed (randomized
// rounding in global routing), the verifier's samples and the ECO delta
// stream, so the same seed gives the same inputs. The process exits 1
// when any output is incorrect.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"bonnroute/internal/chip"
)

// workers is the routing parallelism of every flow: the two CPUs of the
// reference host.
const workers = 2

// config sizes one run. Tests shrink the chips; the command derives the
// amount of work from --seconds.
type config struct {
	workload string
	seed     int64
	trace    bool

	// mediumSets is how many sets of the three medium chips flow-medium
	// routes; medium holds the chip templates of one set.
	mediumSets int
	medium     []chip.GenParams
	// scaleNets sizes the flow-scale chip, refNets the growth-reference
	// chip of the traced run.
	scaleNets, refNets int
	// svc is the ECO service chip, deltas how many assess+reroute pairs
	// the client sends, replay how many of its reroutes are replayed
	// in-process.
	svc            chip.GenParams
	deltas, replay int
}

// The chips are fixed and --seed varies only how they are routed.
// Chips generated from the seed differ too much for a bounded metric:
// over five seeds, six medium chips per run spread 35% in drc_errors
// and 25% in peak_rss_mb (quartile distance over median, 2-CPU host).

// mediumChips are routebench's medium tier (140 nets requested on 4
// and on 6 layers, 240 on 6 layers). Set k of flow-medium uses these
// chips with 100·k added to each generator seed.
var mediumChips = []chip.GenParams{
	{Name: "chip1", Seed: 11, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 4, LocalityRadius: 6, PowerStripePeriod: 6},
	{Name: "chip2", Seed: 12, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 6, LocalityRadius: 12, PowerStripePeriod: 4},
	{Name: "chip3", Seed: 13, Rows: 10, Cols: 32, NumNets: 240, NumLayers: 6, LocalityRadius: 8, PowerStripePeriod: 8},
}

// svcChip is routebench's service benchmark chip.
var svcChip = chip.GenParams{
	Name: "svc1", Seed: 21, Rows: 8, Cols: 24, NumNets: 140, NumLayers: 6, LocalityRadius: 12, PowerStripePeriod: 4,
}

// scaleChipSeed is the generator seed of the flow-scale chip and of the
// traced run's growth-reference chip (chip.ScaledParams).
const scaleChipSeed = 1

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *config, *outcome) error{
	"flow-medium": runFlowMedium,
	"flow-scale":  runFlowScale,
	"eco-service": runEcoService,
}

// newConfig sizes a run of the named workload. flow-medium and
// eco-service scale with --seconds (about that long on a 2-CPU host);
// flow-scale always routes its one chip, about 30 s. The work is a
// fixed function of --seconds, never of elapsed time, so two runs with
// the same seed route exactly the same chips and deltas.
func newConfig(workload string, seed int64, seconds int, trace bool) *config {
	return &config{
		workload:   workload,
		seed:       seed,
		trace:      trace,
		mediumSets: max(1, seconds/6),
		medium:     mediumChips,
		scaleNets:  1500,
		refNets:    1000,
		svc:        svcChip,
		deltas:     max(tailBeyond+1, seconds*6/5),
		replay:     2,
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: flow-medium, flow-scale or eco-service")
		seed    = flag.Int64("seed", 1, "seed every input of the run is derived from")
		seconds = flag.Int("seconds", 15, "how long one run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload flow-medium|flow-scale|eco-service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "[perfbench] %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d workers=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), workers)

	cfg := newConfig(*name, *seed, *seconds, *trace == 1)
	start := time.Now()
	out := newOutcome()
	if err := run(context.Background(), cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := renderFor(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[perfbench] done in %.1fs: correct=%v attempted=%d failed=%d\n",
		time.Since(start).Seconds(), res.Correct, res.Attempted, res.Failed)
	printHuman(res)
	fmt.Println(encodeLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

// renderFor picks the metric list the run reports: per-layer with
// --trace 1, otherwise end-to-end.
func renderFor(cfg *config, out *outcome) (result, error) {
	if cfg.trace {
		return out.render(perLayer)
	}
	return out.render(endToEnd)
}
