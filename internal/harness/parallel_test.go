package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// The parallel harness must be a pure scheduling change: the same
// cells run, land in the same table slots, and every baseline is the
// same simulation — so serial and parallel tables render identically,
// byte for byte.
func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	base := Options{Insts: 40_000, Benchmarks: []string{"cmp", "vor"}}
	experiments := []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"Figure5", Figure5},
		{"Table3", Table3},
	}
	for _, exp := range experiments {
		t.Run(exp.name, func(t *testing.T) {
			serial := base
			serial.Parallelism = 1
			par := base
			par.Parallelism = 8

			ts, err := exp.run(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			tp, err := exp.run(par)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if ts.String() != tp.String() {
				t.Errorf("serial and parallel tables differ:\n--- serial ---\n%s\n--- parallel(8) ---\n%s", ts, tp)
			}
		})
	}
}

// A shared BaselineCache must run each perfect-TLB machine shape
// exactly once per invocation, no matter how many cells (or repeat
// experiments) ask for it concurrently.
func TestBaselineCacheSingleflight(t *testing.T) {
	t.Parallel()
	cache := NewBaselineCache()
	opt := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp"},
		Parallelism: 8,
		Baselines:   cache,
	}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	// Figure 5's four mechanisms span three context counts (1, 2 and
	// 4 hardware contexts), hence three distinct baseline shapes; the
	// traditional and hardware columns share one.
	if got := cache.Runs(); got != 3 {
		t.Errorf("baseline simulations = %d, want 3 (one per machine shape)", got)
	}
	before := cache.Runs()
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	if got := cache.Runs(); got != before {
		t.Errorf("re-running Figure 5 added %d baseline simulations, want 0", got-before)
	}
}

// forEach must visit every index exactly once, keep running every
// cell when some fail, and aggregate the failures in index order.
func TestForEach(t *testing.T) {
	t.Parallel()
	r := newRunner(Options{Parallelism: 4}, "TestForEach")
	var mu sync.Mutex
	seen := make(map[int]int)
	if err := r.forEach(64, func(c *cell) error {
		mu.Lock()
		seen[c.index]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 64 {
		t.Errorf("visited %d indices, want 64", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("index %d visited %d times", i, n)
		}
	}

	// Failures must not stop the other cells: all 16 run, and every
	// failing index is reported, in order.
	ran := make(map[int]bool)
	err := r.forEach(16, func(c *cell) error {
		mu.Lock()
		ran[c.index] = true
		mu.Unlock()
		if c.index >= 3 {
			return fmt.Errorf("cell %d failed", c.index)
		}
		return nil
	})
	if len(ran) != 16 {
		t.Errorf("only %d of 16 cells ran; failures must not cancel siblings", len(ran))
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("forEach returned %v, want *ExperimentError", err)
	}
	if len(ee.Cells) != 13 {
		t.Errorf("aggregated %d cell errors, want 13", len(ee.Cells))
	}
	for i, ce := range ee.Cells {
		if ce.Index != i+3 {
			t.Errorf("cell error %d has index %d, want %d (index order)", i, ce.Index, i+3)
		}
		if ce.Experiment != "TestForEach" {
			t.Errorf("cell error carries experiment %q", ce.Experiment)
		}
	}

	// A panicking cell is contained the same way, with the stack
	// captured.
	err = r.forEach(8, func(c *cell) error {
		if c.index == 5 {
			panic("synthetic cell panic")
		}
		return nil
	})
	if !errors.As(err, &ee) || len(ee.Cells) != 1 {
		t.Fatalf("panic not contained as a single cell error: %v", err)
	}
	if ee.Cells[0].Index != 5 || len(ee.Cells[0].Stack) == 0 {
		t.Errorf("panic cell error lost its index or stack: %+v", ee.Cells[0])
	}
	if !strings.Contains(ee.Cells[0].Cause.Error(), "synthetic cell panic") {
		t.Errorf("panic value lost: %v", ee.Cells[0].Cause)
	}
}

// Progress lines from concurrent completions must never interleave
// mid-line: each write delivers one or more complete lines.
func TestProgressLinesNotTorn(t *testing.T) {
	t.Parallel()
	var buf lineCheckWriter
	opt := Options{
		Insts:       30_000,
		Benchmarks:  []string{"cmp", "vor"},
		Parallelism: 8,
		Progress:    &buf,
	}
	if _, err := Figure5(opt); err != nil {
		t.Fatal(err)
	}
	if buf.writes == 0 {
		t.Fatal("no progress output")
	}
	if buf.torn > 0 {
		t.Errorf("%d of %d progress writes did not end at a line boundary", buf.torn, buf.writes)
	}
}

// lineCheckWriter counts writes that do not end with a newline —
// partial lines a concurrent writer could tear.
type lineCheckWriter struct {
	mu     sync.Mutex
	writes int
	torn   int
}

func (w *lineCheckWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if !bytes.HasSuffix(p, []byte("\n")) {
		w.torn++
	}
	return len(p), nil
}
