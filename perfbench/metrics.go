package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricSpec names one reported metric. The same lists are declared in
// BENCHMARK.json; a test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the router sees. Every workload
// reports every one of them, and none is ever 0. route_s is the wall
// time of the workload's routing requests: bonnroute.Route on each chip
// of a flow workload, the /assess and /reroute requests of eco-service.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"route_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"netlength", "dbu", "lower"},
	{"vias", "count", "lower"},
	{"scenic25", "count", "lower"},
	{"drc_errors", "count", "lower"},
	{"success_frac", "ratio", "higher"},
}

// perLayer are the traced run's metrics, one group per layer of the
// BonnRoute flow in the order the flow calls them, then the ECO and
// service layers.
var perLayer = []metricSpec{
	{"chip.generate_s", "s", "lower"},

	{"prep.busy_s", "s", "lower"},
	{"prep.heap_mb", "MB", "lower"},
	{"prep.growth_exp", "1", "lower"},
	{"pinaccess.busy_s", "s", "lower"},
	{"pinaccess.prep_share", "ratio", "lower"},
	{"pinaccess.catalogues", "count", "lower"},
	{"pinaccess.bb_nodes", "count", "lower"},
	{"pinaccess.growth_exp", "1", "lower"},

	{"capest.busy_s", "s", "lower"},
	{"capest.edges", "count", "lower"},
	{"capest.growth_exp", "1", "lower"},

	{"global.busy_s", "s", "lower"},
	{"global.oracle_calls", "count", "lower"},
	{"global.oracle_reuse_ratio", "ratio", "higher"},
	{"global.rerouted", "count", "lower"},
	{"global.rounding_violations", "count", "lower"},
	{"global.growth_exp", "1", "lower"},
	{"steiner.exact_s", "s", "lower"},
	{"steiner.pc_s", "s", "lower"},

	{"detail.busy_s", "s", "lower"},
	{"detail.searches", "count", "lower"},
	{"detail.heap_pops", "count", "lower"},
	{"detail.labels", "count", "lower"},
	{"detail.heap_pops_per_search", "count", "lower"},
	{"detail.ripups", "count", "lower"},
	{"detail.failed", "count", "lower"},
	{"detail.sched_idle_s", "s", "lower"},
	{"detail.steals", "count", "lower"},
	{"detail.heap_mb", "MB", "lower"},
	{"detail.growth_exp", "1", "lower"},
	{"fastgrid.hit_rate", "ratio", "higher"},

	{"cleanup.busy_s", "s", "lower"},
	{"cleanup.violating_nets", "count", "lower"},
	{"cleanup.fixed", "count", "higher"},
	{"cleanup.fix_ratio", "ratio", "higher"},
	{"cleanup.growth_exp", "1", "lower"},

	{"audit.busy_s", "s", "lower"},
	{"audit.errors", "count", "lower"},
	{"audit.growth_exp", "1", "lower"},

	{"eco.prep_s", "s", "lower"},
	{"eco.replay_s", "s", "lower"},
	{"eco.global_s", "s", "lower"},
	{"eco.detail_s", "s", "lower"},
	{"eco.cleanup_s", "s", "lower"},
	{"eco.dirty_frac", "ratio", "lower"},
	{"eco.fell_back", "count", "lower"},

	{"service.reroute_p50_ms", "ms", "lower"},
	{"service.reroute_tail_ms", "ms", "lower"},
	{"service.assess_p50_ms", "ms", "lower"},
	{"service.assess_tail_ms", "ms", "lower"},
	{"service.overhead_ms", "ms", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.reroute_samples", "count", "higher"},
	{"service.tail_pct", "%", "higher"},

	{"flow.unrouted_nets", "count", "lower"},
	{"flow.unattributed_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects what a workload measured and whether every output
// it checked was correct.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// fail records an incorrect output; the run then reports correct=false.
func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Fprintln(os.Stderr, "INCORRECT:", msg)
}

// op counts one attempted operation and whether it failed.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// render builds the result line from the metrics of specs, all of which
// the outcome must hold; a missing or non-finite one is a bug of the
// benchmark itself.
func (o *outcome) render(specs []metricSpec) (result, error) {
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, s := range specs {
		v, ok := o.values[s.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}

// printHuman writes the metrics as an aligned table on stderr.
func printHuman(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func encodeLine(res result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	return string(b)
}
