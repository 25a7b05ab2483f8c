package core_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/workload"
)

// sampleTolerance is the acceptance band for sampled-vs-exact
// penalty-per-miss: the reported CI plus a small edge allowance for
// effects sampling cannot see (the exact run's cold-start ramp, and
// misses whose stall spills across a window boundary).
func sampleTolerance(exact, ci float64) float64 {
	edge := 0.05*math.Abs(exact) + 0.75
	return ci + edge
}

// TestSampleCompareMatchesExact: the sampled estimator reproduces the
// exact penalty-per-miss within tolerance for the software and
// hardware mechanisms on a TLB-heavy workload.
func TestSampleCompareMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-vs-exact comparison simulates ~2M detailed instructions")
	}
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	spec := core.SampleSpec{Period: 50_000, Warmup: 10_000, Window: 10_000}
	for _, tc := range []struct {
		name string
		mech core.Mechanism
		ctxs int
	}{
		{"traditional", core.MechTraditional, 1},
		{"multi(1)", core.MechMultithreaded, 2},
		{"hardware", core.MechHardware, 1},
	} {
		cfg := core.DefaultConfig()
		cfg.Mech = tc.mech
		cfg.Contexts = tc.ctxs
		cfg.MaxInsts = 600_000
		cfg.MaxCycles = 400 * cfg.MaxInsts
		exact, err := core.Compare(cfg, w)
		if err != nil {
			t.Fatalf("%s: exact: %v", tc.name, err)
		}
		s, err := core.SampleCompare(cfg, spec, w)
		if err != nil {
			t.Fatalf("%s: sampled: %v", tc.name, err)
		}
		if s.Windows < 5 {
			t.Fatalf("%s: only %d windows measured", tc.name, s.Windows)
		}
		if s.TotalInsts != cfg.MaxInsts {
			t.Fatalf("%s: functional tier committed %d insts, want %d", tc.name, s.TotalInsts, cfg.MaxInsts)
		}
		want := exact.PenaltyPerMiss()
		tol := sampleTolerance(want, s.CI95)
		if diff := math.Abs(s.PenaltyPerMiss - want); diff > tol {
			t.Errorf("%s: sampled %.2f±%.2f vs exact %.2f: |Δ|=%.2f exceeds tolerance %.2f",
				tc.name, s.PenaltyPerMiss, s.CI95, want, diff, tol)
		}
		if s.DetailedInsts >= cfg.MaxInsts {
			t.Errorf("%s: detailed insts %d not smaller than the full run %d",
				tc.name, s.DetailedInsts, cfg.MaxInsts)
		}
	}
}

// TestSampleCompareDeterministic: equal inputs give bit-equal
// estimates (the harness determinism contract extends to sampling).
func TestSampleCompareDeterministic(t *testing.T) {
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechTraditional
	cfg.MaxInsts = 200_000
	cfg.MaxCycles = 400 * cfg.MaxInsts
	spec := core.SampleSpec{Period: 40_000, Warmup: 5_000, Window: 5_000}
	a, err := core.SampleCompare(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.SampleCompare(cfg, spec, w)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("two identical sampled runs differ:\n%+v\n%+v", a, b)
	}
}

func TestSampleSpecParse(t *testing.T) {
	s, err := core.ParseSampleSpec("100000:5000:10000")
	if err != nil {
		t.Fatal(err)
	}
	want := core.SampleSpec{Period: 100_000, Warmup: 5_000, Window: 10_000}
	if s != want {
		t.Fatalf("parsed %+v, want %+v", s, want)
	}
	if got := s.String(); got != "100000:5000:10000" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "5", "1:2", "x:y:z", "1000:600:600", "0:0:0"} {
		if _, err := core.ParseSampleSpec(bad); err == nil {
			t.Errorf("ParseSampleSpec(%q) accepted", bad)
		}
	}
}

func TestSampleCompareRejectsPerfect(t *testing.T) {
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechPerfect
	if _, err := core.SampleCompare(cfg, core.SampleSpec{Period: 10_000, Window: 1_000}, w); err == nil {
		t.Fatal("perfect-TLB subject accepted")
	}
}

// TestSampleCompareCtxCancels: sampled windows run under the caller's
// context like every other cycle-accurate run, so a done context stops
// the estimate with the driver's *cpu.CancelledError instead of
// simulating every window.
func TestSampleCompareCtxCancels(t *testing.T) {
	w, err := workload.ByName("mph")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechTraditional
	cfg.MaxInsts = 200_000
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := core.SampleSpec{Period: 50_000, Warmup: 10_000, Window: 10_000}
	s, err := core.SampleCompareCtx(ctx, cfg, spec, w)
	var ce *cpu.CancelledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("SampleCompareCtx under a cancelled context returned %v, want *cpu.CancelledError", err)
	}
	if s.Windows != 0 {
		t.Errorf("%d windows measured after cancellation, want none", s.Windows)
	}
}
