// Command bonnroute routes a synthetic chip with either the BonnRoute
// flow (resource-sharing global routing + interval-based detailed
// routing + DRC cleanup) or the ISR-like baseline flow, and prints the
// §5.3-style metrics.
//
// Usage:
//
//	bonnroute [-flow br|isr|both] [-rows N] [-cols N] [-nets N]
//	          [-seed N] [-workers N] [-phases N] [-layers N] [-v]
//	          [-trace file.jsonl] [-progress]
//
// -trace streams the full span/event/counter record stream as JSON
// lines to a file; -progress prints a live, indented span log to
// stderr. Ctrl-C cancels the run at the next stage, phase or round
// boundary and the partial metrics are still printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/report"
)

func main() {
	var (
		flow     = flag.String("flow", "both", "br, isr, or both")
		rows     = flag.Int("rows", 8, "placement rows")
		cols     = flag.Int("cols", 24, "placement columns")
		nets     = flag.Int("nets", 120, "number of nets")
		layers   = flag.Int("layers", 6, "wiring layers")
		seed     = flag.Int64("seed", 1, "generator / rounding seed")
		workers  = flag.Int("workers", 1, "parallel workers")
		phases   = flag.Int("phases", 32, "resource sharing phases (t)")
		radius   = flag.Int("radius", 8, "net locality radius (slots)")
		verbose  = flag.Bool("v", false, "print per-stage details")
		traceOut = flag.String("trace", "", "write a JSONL trace to this file")
		progress = flag.Bool("progress", false, "print live span progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var sinks []bonnroute.Sink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bonnroute: %v\n", err)
			os.Exit(1)
		}
		js := bonnroute.NewJSONLSink(f)
		defer func() {
			if err := js.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bonnroute: trace: %v\n", err)
			}
			f.Close()
		}()
		sinks = append(sinks, js)
	}
	if *progress {
		sinks = append(sinks, bonnroute.NewProgressSink(os.Stderr))
	}
	tracer := bonnroute.NewTracer(sinks...)

	gen := func() *chip.Chip {
		return chip.Generate(chip.GenParams{
			Seed: *seed, Rows: *rows, Cols: *cols, NumNets: *nets,
			NumLayers: *layers, LocalityRadius: *radius,
			PowerStripePeriod: 6,
		})
	}
	opts := []bonnroute.Option{
		bonnroute.WithOptions(bonnroute.Options{GlobalPhases: *phases}),
		bonnroute.WithWorkers(*workers),
		bonnroute.WithSeed(*seed),
		bonnroute.WithTracer(tracer),
	}

	var rowsOut []report.Metrics
	runBR := *flow == "br" || *flow == "both"
	runISR := *flow == "isr" || *flow == "both"

	if runISR {
		c := gen()
		fmt.Fprintf(os.Stderr, "routing %d nets (ISR flow)...\n", len(c.Nets))
		res := bonnroute.RouteBaseline(ctx, c, opts...)
		rowsOut = append(rowsOut, res.Metrics)
		if *verbose {
			printDetails(res)
		}
	}
	if runBR {
		c := gen()
		fmt.Fprintf(os.Stderr, "routing %d nets (BonnRoute flow)...\n", len(c.Nets))
		res := bonnroute.Route(ctx, c, opts...)
		rowsOut = append(rowsOut, res.Metrics)
		if *verbose {
			printDetails(res)
		}
	}
	fmt.Print(report.FormatTableI(rowsOut))
}

func printDetails(res *bonnroute.Result) {
	if res.Cancelled {
		fmt.Println("  (cancelled — partial results)")
	}
	if res.Global != nil {
		fmt.Printf("  global: λ=%.3f oracle calls=%d reuses=%d rechosen=%d rerouted=%d overflowed=%d unrouted=%d iters=%d (alg2 %v, total %v)\n",
			res.Global.Lambda, res.Global.OracleCalls, res.Global.OracleReuses,
			res.Global.Rechosen, res.Global.Rerouted, res.Global.Overflowed,
			res.Global.Unrouted, res.Global.Iterations,
			res.Global.AlgTime, res.Global.Total)
	}
	fmt.Printf("  detail: routed=%d failed=%d rounds=%d time=%v fastgrid-hit=%.4f cleanup=%v fixed=%d\n",
		res.Detail.Routed, res.Detail.Failed, res.Detail.Rounds, res.DetailTime,
		res.FastGridHitRate, res.CleanupTime, res.CleanupFixed)
	fmt.Printf("  audit: diffnet=%d minarea=%d notch=%d shortedge=%d opens=%d\n",
		res.Audit.DiffNetViolations, res.Audit.MinAreaViolations,
		res.Audit.NotchViolations, res.Audit.ShortEdgeShapes, res.Audit.Opens)
}
