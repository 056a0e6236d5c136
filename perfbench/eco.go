package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"time"

	"bonnroute"
	"bonnroute/internal/chip"
	"bonnroute/internal/core"
	"bonnroute/internal/incremental"
	"bonnroute/internal/service"
)

// client talks to the in-process routing service over loopback HTTP.
type client struct {
	url  string
	http *http.Client
	// requests and rejected count every request and the non-2xx ones.
	requests, rejected int
}

// do sends req and decodes a 2xx JSON response into into (nil
// discards it). Any other status is an error.
func (cl *client) do(req *http.Request, into any) error {
	cl.requests++
	resp, err := cl.http.Do(req)
	if err != nil {
		cl.rejected++
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		cl.rejected++
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err != nil || into == nil {
		return err
	}
	return json.Unmarshal(raw, into)
}

// post sends body as JSON.
func (cl *client) post(path string, body, into any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, cl.url+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return cl.do(req, into)
}

type createResponse struct {
	Generation uint64                  `json:"generation"`
	Summary    bonnroute.ResultSummary `json:"summary"`
}

type rerouteResponse struct {
	Generation uint64                  `json:"generation"`
	NoOp       bool                    `json:"no_op"`
	Eco        *bonnroute.EcoStats     `json:"eco"`
	Summary    bonnroute.ResultSummary `json:"summary"`
}

type assessResponse struct {
	Generation uint64 `json:"generation"`
}

// ecoSetupReps is how often eco-service creates its session; each
// creation routes the chip in full.
const ecoSetupReps = 3

// ecoRun is what one ECO session measured: its creations, the closed
// loop of requests, and the in-process flow the daemon must match.
type ecoRun struct {
	gens, setups                    []float64
	rerouteMS, assessMS, overheadMS []float64
	ecoStats                        []*bonnroute.EcoStats
	requests, rejected              int
	summary                         bonnroute.ResultSummary

	// direct is the chip routed in-process with the session's options.
	params     chip.GenParams
	opt        core.Options
	direct     *bonnroute.Result
	directWall time.Duration
}

// runEcoService is the ECO-service workload: a session on the svc1 chip
// created over loopback HTTP (setup), then one closed-loop client that,
// for each seeded RandomDelta, calls /assess and then /reroute on it.
func runEcoService(ctx context.Context, cfg *config, out *outcome) error {
	e, err := ecoSession(ctx, cfg.svc, cfg.seed, ecoSetupReps, cfg.deltas, cfg.replay, out)
	if err != nil {
		return err
	}
	v := out.values
	v["setup_s"] = median(e.setups)
	var loop float64
	for i := range e.rerouteMS {
		loop += e.rerouteMS[i] + e.assessMS[i]
	}
	v["route_s"] = loop / 1000
	v["peak_rss_mb"] = peakRSSMB()
	v["netlength"] = float64(e.summary.Netlength)
	v["vias"] = float64(e.summary.Vias)
	v["scenic25"] = float64(e.summary.Scenic25)
	v["drc_errors"] = float64(e.summary.Errors)
	v["success_frac"] = 1 - ratio(float64(e.rejected), float64(e.requests))
	if !cfg.trace {
		return nil
	}
	if err := e.layerMetrics(v); err != nil {
		return err
	}
	tc := traceChip{params: e.params, opt: e.opt, wall: e.directWall, q: qualityOf(e.direct)}
	return traceLayers(ctx, cfg, []traceChip{tc}, median(e.gens), out)
}

// ecoSession serves chip p from an in-process routing service over
// loopback HTTP. It creates a session `creates` times, each routed with
// its own seed derived from seed, and deletes all but the last; it then
// sends `deltas` assess+reroute pairs from one closed-loop client and
// replays the first `replay` reroutes in-process. Every response and
// the replay are checked.
func ecoSession(ctx context.Context, p chip.GenParams, seed int64, creates, deltas, replay int, out *outcome) (*ecoRun, error) {
	svc := service.New(service.Config{MaxInFlight: 2})
	ts := httptest.NewServer(svc)
	defer svc.Close()
	defer ts.Close()
	cl := &client{url: ts.URL, http: ts.Client()}
	e := &ecoRun{params: p}

	// Setup: generate the chip (the client's mirror of the daemon's) and
	// create the session, in which the daemon generates and routes the
	// same chip. Each creation routes with its own seed, so the medians
	// do not hang on one rounding outcome.
	var opt service.OptionsWire
	var mirror *chip.Chip
	var cr createResponse
	for rep := 0; rep < creates; rep++ {
		opt = service.OptionsWire{Seed: deriveSeed(seed, 4, int64(rep)), Workers: workers}
		t := time.Now()
		mirror = chip.Generate(p)
		e.gens = append(e.gens, time.Since(t).Seconds())
		err := cl.post("/sessions", map[string]any{
			"name": "bench",
			"chip": service.ChipWire{
				Name: p.Name, Seed: p.Seed, Rows: p.Rows, Cols: p.Cols, NumNets: p.NumNets,
				NumLayers: p.NumLayers, LocalityRadius: p.LocalityRadius, PowerStripePeriod: p.PowerStripePeriod,
			},
			"options": opt,
		}, &cr)
		e.setups = append(e.setups, time.Since(t).Seconds())
		out.op(err == nil && cr.Generation == 1)
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		if cr.Generation != 1 {
			out.fail("session created at generation %d, want 1", cr.Generation)
		}
		fmt.Fprintf(os.Stderr, "[eco] %s: %d nets, session created in %.2fs (route %.2fs)\n",
			p.Name, len(mirror.Nets), e.setups[rep], cr.Summary.RuntimeMS/1000)
		if rep < creates-1 {
			req, err := http.NewRequest(http.MethodDelete, cl.url+"/sessions/bench", nil)
			if err == nil {
				err = cl.do(req, nil)
			}
			if err != nil {
				return nil, fmt.Errorf("delete session: %w", err)
			}
			out.op(true)
			// Return the deleted session's memory, so peak_rss_mb
			// reflects one live session, as a user of the daemon has.
			debug.FreeOSMemory()
		}
	}
	gen, summary := cr.Generation, cr.Summary

	// The chip routed in-process with the session's options: the daemon
	// must have served exactly this result, and the replay check starts
	// from it.
	e.opt = core.Options{Seed: opt.Seed, Workers: opt.Workers}
	debug.FreeOSMemory()
	t0 := time.Now()
	e.direct = bonnroute.Route(ctx, mirror, bonnroute.WithOptions(e.opt))
	e.directWall = time.Since(t0)
	checkFlow(mirror, e.direct, flowChip{params: p, opt: e.opt}, out)
	if !sameSummary(bonnroute.Summarize(e.direct), summary) {
		out.fail("the daemon's created summary differs from an in-process bonnroute.Route")
	}

	// The closed loop: assess, then reroute the same delta. The delta
	// stream is routebench's for this chip; each delta is generated
	// against the chip as the previous ones left it.
	var sent []bonnroute.Delta
	var served []bonnroute.ResultSummary
	for i := 0; i < deltas; i++ {
		delta := incremental.RandomDelta(mirror, p.Seed*1000+int64(i), incremental.GenConfig{})
		body := map[string]any{"delta": delta}

		var ar assessResponse
		t := time.Now()
		err := cl.post("/sessions/bench/assess", body, &ar)
		e.assessMS = append(e.assessMS, millis(time.Since(t)))
		out.op(err == nil && ar.Generation == gen)
		if err != nil {
			return nil, fmt.Errorf("assess %d: %w", i, err)
		}
		if ar.Generation != gen {
			out.fail("assess %d: assessed generation %d, session is at %d", i, ar.Generation, gen)
		}

		var rr rerouteResponse
		t = time.Now()
		err = cl.post("/sessions/bench/reroute", map[string]any{"from_generation": gen, "delta": delta}, &rr)
		lat := time.Since(t)
		e.rerouteMS = append(e.rerouteMS, millis(lat))
		ok := err == nil && rr.Generation == gen+1 && !rr.NoOp && rr.Eco != nil && !rr.Summary.Cancelled
		out.op(ok)
		if err != nil {
			return nil, fmt.Errorf("reroute %d: %w", i, err)
		}
		if !ok {
			return nil, fmt.Errorf("reroute %d: generation %d after %d (no_op %v, cancelled %v)",
				i, rr.Generation, gen, rr.NoOp, rr.Summary.Cancelled)
		}
		e.ecoStats = append(e.ecoStats, rr.Eco)
		e.overheadMS = append(e.overheadMS, millis(lat-rr.Eco.Total))
		gen, summary = rr.Generation, rr.Summary
		sent = append(sent, delta)
		served = append(served, rr.Summary)
		next, _, err := incremental.Apply(mirror, &delta)
		if err != nil {
			return nil, fmt.Errorf("mirror apply %d: %w", i, err)
		}
		mirror = next
	}
	e.summary = summary
	e.requests, e.rejected = cl.requests, cl.rejected

	// Replay a prefix of the delta stream in-process, untimed: each step
	// must give the summary the daemon served.
	prev := e.direct
	for j := 0; j < replay && j < len(sent); j++ {
		res, _, err := incremental.Reroute(ctx, prev, sent[j], e.opt)
		if err != nil {
			out.fail("replay %d: %v", j, err)
			break
		}
		checkFlow(res.Chip, res, flowChip{params: p, opt: e.opt}, out)
		if !sameSummary(bonnroute.Summarize(res), served[j]) {
			out.fail("replay %d: in-process incremental.Reroute differs from the daemon's summary", j)
		}
		prev = res
	}
	return e, nil
}

// layerMetrics reports the ECO and service layers: request latencies and
// the stages of each reroute, from the EcoStats its response carried.
func (e *ecoRun) layerMetrics(v map[string]float64) error {
	rt, pct, ok1 := tail(e.rerouteMS)
	at, _, ok2 := tail(e.assessMS)
	if !ok1 || !ok2 {
		return fmt.Errorf("%d reroutes are too few for a tail with %d samples beyond it", len(e.rerouteMS), tailBeyond)
	}
	v["service.reroute_p50_ms"] = median(e.rerouteMS)
	v["service.reroute_tail_ms"] = rt
	v["service.assess_p50_ms"] = median(e.assessMS)
	v["service.assess_tail_ms"] = at
	fmt.Fprintf(os.Stderr, "[eco] %d deltas: reroute p50 %.1f ms, tail p%.0f %.1f ms; assess p50 %.3f ms, tail %.3f ms\n",
		len(e.rerouteMS), v["service.reroute_p50_ms"], pct, rt, v["service.assess_p50_ms"], at)

	stage := func(f func(*bonnroute.EcoStats) float64) float64 {
		xs := make([]float64, len(e.ecoStats))
		for i, st := range e.ecoStats {
			xs[i] = f(st)
		}
		return median(xs)
	}
	v["eco.prep_s"] = stage(func(s *bonnroute.EcoStats) float64 { return s.PrepTime.Seconds() })
	v["eco.replay_s"] = stage(func(s *bonnroute.EcoStats) float64 { return s.ReplayTime.Seconds() })
	v["eco.global_s"] = stage(func(s *bonnroute.EcoStats) float64 { return s.GlobalTime.Seconds() })
	v["eco.detail_s"] = stage(func(s *bonnroute.EcoStats) float64 { return s.DetailTime.Seconds() })
	v["eco.cleanup_s"] = stage(func(s *bonnroute.EcoStats) float64 { return s.CleanupTime.Seconds() })
	v["eco.dirty_frac"] = stage(func(s *bonnroute.EcoStats) float64 { return s.DirtyFraction })
	fell := 0
	for _, st := range e.ecoStats {
		if st.FellBack {
			fell++
		}
	}
	v["eco.fell_back"] = float64(fell)
	v["service.overhead_ms"] = median(e.overheadMS)
	v["service.rejected"] = float64(e.rejected)
	v["service.reroute_samples"] = float64(len(e.rerouteMS))
	v["service.tail_pct"] = pct
	return nil
}

// sameSummary compares two summaries on everything but the run time.
func sameSummary(a, b bonnroute.ResultSummary) bool {
	a.RuntimeMS, b.RuntimeMS = 0, 0
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
