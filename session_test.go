package bonnroute_test

import (
	"context"
	"errors"
	"testing"

	"bonnroute"
	"bonnroute/internal/incremental"
)

func sessionChip() *bonnroute.Chip {
	return bonnroute.GenerateChip(bonnroute.ChipParams{
		Seed: 31, Rows: 4, Cols: 12, NumNets: 28, NumLayers: 4, LocalityRadius: 4,
	})
}

// A session reroute with the pinned options must be bit-equal in the
// headline metrics to a bare incremental.Reroute fed the same options
// by hand — the session only removes the pairing hazard, it must not
// change results.
func TestSessionMatchesBareReroute(t *testing.T) {
	ctx := context.Background()
	opt := bonnroute.Options{Seed: 31}
	opts := []bonnroute.Option{bonnroute.WithOptions(opt)}

	s, err := bonnroute.NewSession(ctx, sessionChip(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("fresh session generation = %d, want 1", s.Generation())
	}
	delta := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})

	prev := bonnroute.Route(ctx, sessionChip(), opts...)
	want, wantStats, err := incremental.Reroute(ctx, prev, delta, opt)
	if err != nil {
		t.Fatal(err)
	}

	got, gotStats, err := s.Reroute(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation after commit = %d, want 2", s.Generation())
	}
	if got.Metrics.Netlength != want.Metrics.Netlength ||
		got.Metrics.Vias != want.Metrics.Vias ||
		got.Metrics.Errors != want.Metrics.Errors ||
		got.Metrics.Unrouted != want.Metrics.Unrouted {
		t.Fatalf("session result differs from bare Reroute:\n  session %+v\n  bare    %+v",
			got.Metrics, want.Metrics)
	}
	if gotStats.DirtyNets != wantStats.DirtyNets || gotStats.ReplayedNets != wantStats.ReplayedNets {
		t.Fatalf("eco stats differ: session %+v, bare %+v", gotStats, wantStats)
	}
	if s.Result() != got {
		t.Fatal("session must serve the committed result")
	}
}

func TestSessionStaleGeneration(t *testing.T) {
	ctx := context.Background()
	s, err := bonnroute.NewSession(ctx, sessionChip(), bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	d1 := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})
	if _, _, _, err := s.RerouteAt(ctx, 1, d1); err != nil {
		t.Fatal(err)
	}
	// A delta built against generation 1 must now be rejected, not
	// silently applied on top of generation 2.
	d2 := bonnroute.Delta{RemoveNets: []int{0}}
	_, _, gen, err := s.RerouteAt(ctx, 1, d2)
	if !errors.Is(err, bonnroute.ErrStaleGeneration) {
		t.Fatalf("stale submission: got err %v, want ErrStaleGeneration", err)
	}
	if gen != 2 {
		t.Fatalf("rejection must report the current generation, got %d", gen)
	}
	// Generation 0 skips the check.
	if _, _, _, err := s.RerouteAt(ctx, 0, d2); err != nil {
		t.Fatal(err)
	}
}

// A cancelled reroute must not commit: the session keeps serving its
// previous result and generation.
func TestSessionCancelledRerouteNotCommitted(t *testing.T) {
	s, err := bonnroute.NewSession(context.Background(), sessionChip(), bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	before, _, genBefore := s.Snapshot()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := bonnroute.RandomDelta(s.Chip(), 7, bonnroute.EcoGenConfig{})
	_, _, err = s.Reroute(ctx, d)
	if !errors.Is(err, bonnroute.ErrCancelled) {
		t.Fatalf("got err %v, want ErrCancelled", err)
	}
	after, _, genAfter := s.Snapshot()
	if after != before || genAfter != genBefore {
		t.Fatal("cancelled reroute must not change the session")
	}
}

func TestNewSessionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bonnroute.NewSession(ctx, sessionChip()); !errors.Is(err, bonnroute.ErrCancelled) {
		t.Fatalf("got err %v, want ErrCancelled", err)
	}
}

func TestSessionFromResult(t *testing.T) {
	ctx := context.Background()
	res := bonnroute.Route(ctx, sessionChip(), bonnroute.WithSeed(31))
	s, err := bonnroute.SessionFromResult(res, bonnroute.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	if s.Result() != res || s.Generation() != 1 {
		t.Fatal("SessionFromResult must pin the given result at generation 1")
	}
	if _, err := bonnroute.SessionFromResult(nil); err == nil {
		t.Fatal("nil result must be rejected")
	}
}
