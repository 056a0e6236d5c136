package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"bonnroute/internal/chip"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q does not match %s", m.name, nameRE)
			}
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("metric %s: better is %q", m.name, m.better)
			}
			if seen[m.name] {
				t.Errorf("metric %s declared twice", m.name)
			}
			seen[m.name] = true
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric lists the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			e := got[i]
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s",
					kind, i, e.Name, e.Unit, e.Better, m.name, m.unit, m.better)
			}
			if bounded && (e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", e.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}

// TestTail covers 9, 10 and 11 samples beyond the smallest one: a tail
// needs tailBeyond samples above it.
func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples (9 beyond the smallest) gave a tail")
	}
	v, pct, ok := tail(seq(11))
	if !ok || v != 1 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("11 samples: got %v at p%v (ok %v), want 1 at p%v", v, pct, ok, 100.0/11)
	}
	v, pct, ok = tail(seq(12))
	if !ok || v != 2 || math.Abs(pct-200.0/12) > 1e-9 {
		t.Errorf("12 samples: got %v at p%v (ok %v), want 2 at p%v", v, pct, ok, 200.0/12)
	}
	if v, _, _ := tail(seq(40)); v != 30 {
		t.Errorf("40 samples: tail %v, want 30 (10 samples above it)", v)
	}
}

func TestStats(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
	if k := growthExp(1000, 1, 2000, 4); math.Abs(k-2) > 1e-12 {
		t.Errorf("quadratic growth exponent %v", k)
	}
	if k := growthExp(1000, 0, 2000, 4); k != 0 {
		t.Errorf("degenerate growth exponent %v", k)
	}
	if deriveSeed(1, 2) == deriveSeed(1, 3) || deriveSeed(1, 2) != deriveSeed(1, 2) || deriveSeed(1, 2) < 0 {
		t.Error("deriveSeed must be deterministic, stream-dependent and non-negative")
	}
}

// tinyConfig shrinks every workload to chips that route in a fraction
// of a second.
func tinyConfig(workload string, trace bool) *config {
	cfg := newConfig(workload, 7, 1, trace)
	tiny := chip.GenParams{Name: "tiny", Seed: 3, Rows: 4, Cols: 8, NumNets: 14, NumLayers: 4, LocalityRadius: 4, PowerStripePeriod: 4}
	cfg.medium = []chip.GenParams{tiny}
	cfg.scaleNets, cfg.refNets = 40, 20
	cfg.svc = tiny
	cfg.svc.NumLayers = 6
	return cfg
}

// TestSmoke runs every workload path on tiny chips, untraced and
// traced, and checks the result line is complete and correct.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(name, trace)
			out := newOutcome()
			if err := run(context.Background(), cfg, out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := renderFor(cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.problems)
			}
			want := len(perLayer)
			if !trace {
				want = len(endToEnd)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), want)
			}
			if !trace {
				for _, n := range []string{"setup_s", "route_s", "peak_rss_mb", "netlength", "vias", "success_frac"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
			if trace {
				for _, n := range []string{"eco.prep_s", "service.reroute_p50_ms", "service.assess_tail_ms", "service.overhead_ms"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
			var line map[string]any
			if err := json.Unmarshal([]byte(encodeLine(res)), &line); err != nil || len(line) != 4 {
				t.Errorf("%s trace=%v: result line %v (%v)", name, trace, line, err)
			}
		}
	}
}
