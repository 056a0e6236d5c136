package bonnroute

import (
	"testing"

	"bonnroute/internal/obs"
)

// The functional options must compose left to right onto a zero
// core.Options (core applies its own defaults afterwards).
func TestOptionComposition(t *testing.T) {
	tr := obs.New(obs.NewMemorySink())
	o := buildOptions([]Option{
		WithOptions(Options{
			UsePFuture: true, FutureMode: FutureReduced,
			GlobalPhases: 16, TileTracks: 10, PowerCap: 50,
		}),
		WithWorkers(8),
		WithSeed(7),
		WithTracer(tr),
	})
	if o.Workers != 8 || o.Seed != 7 || o.Tracer != tr {
		t.Fatalf("basic options not applied: %+v", o)
	}
	if o.GlobalPhases != 16 || o.TileTracks != 10 || o.PowerCap != 50 {
		t.Fatalf("global config not applied: %+v", o)
	}
	if !o.UsePFuture || o.FutureMode != FutureReduced {
		t.Fatalf("detail options not applied: %+v", o)
	}
	if o.SkipGlobal {
		t.Fatal("SkipGlobal must default to false")
	}
}

// Later options win over earlier ones.
func TestOptionPrecedence(t *testing.T) {
	o := buildOptions([]Option{WithWorkers(2), WithWorkers(4), WithSeed(1), WithSeed(9)})
	if o.Workers != 4 || o.Seed != 9 {
		t.Fatalf("later option must win: %+v", o)
	}
}

// With no options at all, buildOptions yields the zero Options —
// core.setDefaults supplies Workers=1, Phases=32, TileTracks=8.
func TestOptionDefaultsAreZero(t *testing.T) {
	o := buildOptions(nil)
	if o != (Options{}) {
		t.Fatalf("no options must mean zero Options, got %+v", o)
	}
}

// Nil options are skipped, not dereferenced.
func TestWithoutGlobalAndNilOption(t *testing.T) {
	o := buildOptions([]Option{nil, WithOptions(Options{SkipGlobal: true}), nil})
	if !o.SkipGlobal {
		t.Fatal("nil options around WithOptions must leave SkipGlobal set")
	}
}

// WithOptions replaces everything before it; later options still win.
func TestWithOptionsComposition(t *testing.T) {
	o := buildOptions([]Option{
		WithWorkers(8),
		WithOptions(Options{Seed: 5, GlobalPhases: 7}),
		WithWorkers(2),
	})
	if o.Workers != 2 || o.Seed != 5 || o.GlobalPhases != 7 {
		t.Fatalf("WithOptions composition wrong: %+v", o)
	}
	if o.TileTracks != 0 {
		t.Fatalf("WithOptions must replace, not merge: %+v", o)
	}
}
