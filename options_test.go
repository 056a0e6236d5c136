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
		WithOptions(Options{UsePFuture: true, FutureMode: FutureReduced}),
		WithWorkers(8),
		WithSeed(7),
		WithTracer(tr),
		WithGlobalConfig(GlobalConfig{Phases: 16, TileTracks: 10, PowerCap: 50}),
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

// Zero-valued GlobalConfig fields keep whatever is already set — the
// sub-config only overrides fields the caller filled in.
func TestGlobalConfigZeroFieldsPreserved(t *testing.T) {
	o := buildOptions([]Option{
		WithGlobalConfig(GlobalConfig{Phases: 12, TileTracks: 9}),
		WithGlobalConfig(GlobalConfig{PowerCap: 30}), // Phases/TileTracks zero
	})
	if o.GlobalPhases != 12 || o.TileTracks != 9 || o.PowerCap != 30 {
		t.Fatalf("zero fields clobbered earlier settings: %+v", o)
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

func TestWithoutGlobalAndNilOption(t *testing.T) {
	o := buildOptions([]Option{nil, WithoutGlobal(), nil})
	if !o.SkipGlobal {
		t.Fatal("WithoutGlobal must set SkipGlobal")
	}
}

// The SetX accessors make zero and false expressible: a field set
// explicitly applies even when its value is the zero value, where the
// struct-literal form would merge (keep the earlier setting).
func TestGlobalConfigExplicitZero(t *testing.T) {
	o := buildOptions([]Option{
		WithGlobalConfig(GlobalConfig{Phases: 12, TileTracks: 9, PowerCap: 30}),
		WithGlobalConfig(GlobalConfig{}.SetPhases(0).SetTileTracks(0).SetPowerCap(0)),
	})
	if o.GlobalPhases != 0 || o.TileTracks != 0 || o.PowerCap != 0 {
		t.Fatalf("explicit zeros must clear earlier settings: %+v", o)
	}

	// SetSkip(false) re-enables global routing after WithoutGlobal —
	// the literal GlobalConfig{Skip: false} cannot.
	o = buildOptions([]Option{WithoutGlobal(), WithGlobalConfig(GlobalConfig{})})
	if !o.SkipGlobal {
		t.Fatal("literal zero Skip must keep the earlier SkipGlobal")
	}
	o = buildOptions([]Option{WithoutGlobal(), WithGlobalConfig(GlobalConfig{}.SetSkip(false))})
	if o.SkipGlobal {
		t.Fatal("SetSkip(false) must re-enable global routing")
	}
}

// ExactSteiner follows the same semantics: non-zero literals merge in,
// SetExactSteiner makes 0 (restore default) and -1 (disable) expressible.
func TestGlobalConfigExactSteiner(t *testing.T) {
	o := buildOptions([]Option{WithGlobalConfig(GlobalConfig{ExactSteiner: 7})})
	if o.ExactSteinerMax != 7 {
		t.Fatalf("literal ExactSteiner not applied: %+v", o)
	}
	o = buildOptions([]Option{
		WithGlobalConfig(GlobalConfig{ExactSteiner: 7}),
		WithGlobalConfig(GlobalConfig{Phases: 16}), // zero ExactSteiner merges
	})
	if o.ExactSteinerMax != 7 {
		t.Fatalf("literal zero must keep the earlier threshold: %+v", o)
	}
	o = buildOptions([]Option{
		WithGlobalConfig(GlobalConfig{ExactSteiner: 7}),
		WithGlobalConfig(GlobalConfig{}.SetExactSteiner(0)),
	})
	if o.ExactSteinerMax != 0 {
		t.Fatalf("SetExactSteiner(0) must restore the core default: %+v", o)
	}
	o = buildOptions([]Option{WithGlobalConfig(GlobalConfig{ExactSteiner: -1})})
	if o.ExactSteinerMax != -1 {
		t.Fatalf("disabling via negative literal must apply: %+v", o)
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
