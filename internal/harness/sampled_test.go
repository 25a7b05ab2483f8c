package harness

import (
	"context"
	"errors"
	"testing"
	"time"

	"mtexc/internal/core"
)

// TestFigure5SampledDeterministic: sampled tables are byte-identical
// at any parallelism, like every other experiment.
func TestFigure5SampledDeterministic(t *testing.T) {
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}}

	opt.Parallelism = 1
	serial, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 4
	parallel, err := Figure5Sampled(opt, spec)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Est.String() != parallel.Est.String() {
		t.Fatalf("estimate tables differ across parallelism:\n%s\nvs\n%s",
			serial.Est.String(), parallel.Est.String())
	}
	if serial.CI.String() != parallel.CI.String() {
		t.Fatalf("CI tables differ across parallelism")
	}
	if serial.TotalInsts != parallel.TotalInsts || serial.DetailedInsts != parallel.DetailedInsts {
		t.Fatalf("cost accounting differs across parallelism")
	}
	// Four cells, 120k functional insts each.
	if want := uint64(4 * 120_000); serial.TotalInsts != want {
		t.Fatalf("TotalInsts = %d, want %d", serial.TotalInsts, want)
	}
	if serial.DetailedInsts == 0 || serial.DetailedInsts >= 2*serial.TotalInsts {
		t.Fatalf("DetailedInsts = %d out of range (total %d)", serial.DetailedInsts, serial.TotalInsts)
	}
	// The mechanism ordering the paper reports must survive sampling.
	tr := serial.Est.Cell("murphi", "traditional")
	hw := serial.Est.Cell("murphi", "hardware")
	if !(tr > hw) {
		t.Errorf("sampled estimates lost the traditional > hardware ordering: trad=%.2f hw=%.2f", tr, hw)
	}
}

// TestFigure5SampledCellTimeout: sampled cells run their windows under
// the cell deadline, so an overrunning cell fails like any other.
func TestFigure5SampledCellTimeout(t *testing.T) {
	spec := core.SampleSpec{Period: 40_000, Warmup: 4_000, Window: 4_000}
	opt := Options{Insts: 120_000, Benchmarks: []string{"mph"}, Parallelism: 2, CellTimeout: time.Microsecond}
	_, err := Figure5Sampled(opt, spec)
	var ee *ExperimentError
	if !errors.As(err, &ee) || len(ee.Cells) != 4 {
		t.Fatalf("Figure5Sampled under a 1µs deadline returned %v, want all 4 cells failed", err)
	}
	for _, ce := range ee.Cells {
		if !errors.Is(ce.Cause, context.DeadlineExceeded) {
			t.Errorf("cell %d cause = %v, want a deadline", ce.Index, ce.Cause)
		}
	}
}
