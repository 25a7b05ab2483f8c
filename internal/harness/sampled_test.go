package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/telemetry"
)

// sampledCost reads the functional and cycle-accurate instruction
// totals back from a sampled Figure 5's note.
func sampledCost(t *testing.T, tab *Table) (total, detailed uint64) {
	t.Helper()
	var twice uint64
	if _, err := fmt.Sscanf(tab.Note, "±: 95%% confidence half-width of each estimate; %d of %d insts", &detailed, &twice); err != nil {
		t.Fatalf("sampled note %q: %v", tab.Note, err)
	}
	return twice / 2, detailed
}

// TestFigure5SampledDeterministic: sampled tables are byte-identical
// at any parallelism, like every other experiment.
func TestFigure5SampledDeterministic(t *testing.T) {
	t.Parallel()
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}, Sample: spec}

	opt.Parallelism = 1
	serial, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	parallel, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("estimate and CI tables differ across parallelism:\n%s\nvs\n%s",
			serial.String(), parallel.String())
	}
	total, detailed := sampledCost(t, serial)
	// Four cells, 120k functional insts each.
	if want := uint64(4 * 120_000); total != want {
		t.Fatalf("TotalInsts = %d, want %d", total, want)
	}
	if detailed == 0 || detailed >= 2*total {
		t.Fatalf("DetailedInsts = %d out of range (total %d)", detailed, total)
	}
	// The mechanism ordering the paper reports must survive sampling.
	tr := serial.Cell("murphi", "traditional")
	hw := serial.Cell("murphi", "hardware")
	if !(tr > hw) {
		t.Errorf("sampled estimates lost the traditional > hardware ordering: trad=%.2f hw=%.2f", tr, hw)
	}
}

// TestFigure5SampledMatchesSampleCompare: each sampled cell, whose
// subject and baseline run apart through the journal-able runner,
// reports exactly the estimate and half-width of core.SampleCompare's
// paired single pass.
func TestFigure5SampledMatchesSampleCompare(t *testing.T) {
	t.Parallel()
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}, Sample: spec}
	tab, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.suite()
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(Options{Insts: opt.Insts}, "")
	for ci, cfg := range []core.Config{
		r.baseConfig(core.MechTraditional, 1, 0),
		r.baseConfig(core.MechMultithreaded, 1, 1),
		r.baseConfig(core.MechMultithreaded, 1, 3),
		r.baseConfig(core.MechHardware, 1, 0),
	} {
		s, err := core.SampleCompare(cfg, spec, b[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Get(0, ci); got != s.PenaltyPerMiss {
			t.Errorf("%s: estimate %v, SampleCompare %v", tab.Cols[ci], got, s.PenaltyPerMiss)
		}
		if got := tab.Get(0, 4+ci); got != s.CI95 {
			t.Errorf("%s: CI %v, SampleCompare %v", tab.Cols[ci], got, s.CI95)
		}
	}
}

// TestFigure5SampledCellTimeout: sampled cells run their windows under
// the cell deadline, so an overrunning cell fails like any other.
func TestFigure5SampledCellTimeout(t *testing.T) {
	t.Parallel()
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}, Parallelism: 2, CellTimeout: time.Microsecond, Sample: spec}
	tab, err := Figure5(opt)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 4 {
		t.Fatalf("sampled Figure5 under a 1µs deadline returned %v, want all 4 cells failed", err)
	}
	for _, ce := range ee.Cells {
		if !errors.Is(ce.Cause, context.DeadlineExceeded) {
			t.Errorf("cell %d cause = %v, want a deadline", ce.Index, ce.Cause)
		}
		if ce.Experiment != "Figure5Sampled" {
			t.Errorf("cell %d experiment = %q, want Figure5Sampled", ce.Index, ce.Experiment)
		}
		if repro := ce.Repro(); !strings.Contains(repro, " -sample "+spec.String()) {
			t.Errorf("cell %d repro lacks the sampling spec: %s", ce.Index, repro)
		}
	}
	// Estimates and half-widths of every cell render as FAIL.
	for c := range tab.Cols {
		if !tab.FailedAt(0, c) {
			t.Errorf("column %s of the failed cell is not marked FAIL", tab.Cols[c])
		}
	}
}

// TestSampledModeIsFigure5Only: only Figure 5 understands sampled
// results, so every cell of any other experiment in sampled mode fails
// (Figure 7 mixes and shared-L2 clusters included) instead of running
// exact or reporting window sums as if they were whole runs.
func TestSampledModeIsFigure5Only(t *testing.T) {
	t.Parallel()
	opt := Options{Insts: 60_000, Benchmarks: []string{"mph"}, Mixes: [][3]string{{"cmp", "vor", "mph"}},
		Sample: core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 2_000}}
	for name, exp := range map[string]func(Options) (*Table, error){
		"Table2": Table2, "Figure7": Figure7, "SharedL2": SharedL2, "TLBSweep": TLBSweep,
	} {
		_, err := exp(opt)
		var ee *ExperimentError
		if !errors.As(err, &ee) || len(ee.Cells) == 0 {
			t.Errorf("sampled %s returned %v, want failed cells", name, err)
			continue
		}
		for _, ce := range ee.Cells {
			if !strings.Contains(ce.Error(), "only Figure 5 has a sampled mode") {
				t.Errorf("sampled %s cell %d: cause %v, want the Figure-5-only rule", name, ce.Index, ce)
			}
		}
	}
}

// TestBaselineCacheSeparatesSampledAndExact: exact and sampled Figure
// 5 sharing one baseline cache each pair their subjects with a
// baseline of their own mode, so both render the same bytes as with
// private caches.
func TestBaselineCacheSeparatesSampledAndExact(t *testing.T) {
	t.Parallel()
	exact := Options{Insts: 60_000, Benchmarks: []string{"mph"}}
	sampled := exact
	sampled.Sample = core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 2_000}
	want := make(map[bool]string)
	for _, o := range []Options{exact, sampled} {
		tab, err := Figure5(o)
		if err != nil {
			t.Fatal(err)
		}
		want[o.sampled()] = tab.String()
	}
	for _, order := range [][]Options{{exact, sampled}, {sampled, exact}} {
		bc := NewBaselineCache()
		for _, o := range order {
			o.Baselines = bc
			tab, err := Figure5(o)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.String(); got != want[o.sampled()] {
				t.Errorf("sampled=%v Figure 5 after a shared cache differs:\n%s\nwant\n%s", o.sampled(), got, want[o.sampled()])
			}
		}
		// Three baseline shapes (1, 2 and 4 contexts) per mode.
		if n := bc.Runs(); n != 6 {
			t.Errorf("shared cache ran %d baselines, want 3 per mode", n)
		}
	}
}

// TestSampledCellsReachTelemetry: sampled simulations go through the
// one simulate sequence, so every cell launches simulations the plane
// sees, and the meter and mtexc_sim_insts_total count each distinct
// run's cycle-accurate instructions, the ones the journal records.
func TestSampledCellsReachTelemetry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	j, err := OpenJournal(filepath.Join(dir, "journal.ndjson"), false)
	if err != nil {
		t.Fatal(err)
	}
	plane := telemetry.NewPlane()
	events, err := telemetry.OpenLog(filepath.Join(dir, "events.ndjson"), telemetry.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	plane.Events = events
	opt := Options{Insts: 60_000, Benchmarks: []string{"mph"}, Parallelism: 2,
		Sample:    core.SampleSpec{Period: 20_000, Warmup: 2_000, Window: 2_000},
		Journal:   j,
		Telemetry: plane, Meter: telemetry.NewMeter()}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := events.Close(); err != nil {
		t.Fatal(err)
	}

	var detailed uint64
	entries := 0
	data, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e JournalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Experiment != "Figure5Sampled" {
			t.Errorf("journal entry experiment %q, want Figure5Sampled", e.Experiment)
		}
		detailed += e.Counters["sample.detailed_insts"]
		entries++
	}
	// Four subjects and three baseline shapes.
	if entries != 7 || detailed == 0 {
		t.Fatalf("journal holds %d sampled runs with %d detailed insts, want 7 runs", entries, detailed)
	}

	logged, err := telemetry.ReadEvents(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	sims := make(map[int]int)
	for _, e := range logged {
		if e.Type == "sim.finish" && e.Experiment == "Figure5Sampled" {
			sims[e.Cell]++
		}
	}
	for cell := 0; cell < 4; cell++ {
		if sims[cell] == 0 {
			t.Errorf("cell %d finished no simulation", cell)
		}
	}

	var b strings.Builder
	if err := plane.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"mtexc_sims_total":      float64(entries),
		"mtexc_sim_insts_total": float64(detailed),
	} {
		if got, err := scrapeValue(b.String(), name); err != nil || got != want {
			t.Errorf("%s = %v (%v), want %v", name, got, err, want)
		}
	}
	if sum := opt.Meter.Summary(); !strings.Contains(sum, "sim-insts/s") {
		t.Errorf("meter counted no simulated instructions: %q", sum)
	}
}
