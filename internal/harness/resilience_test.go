package harness

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mtexc/internal/cpu"
	"mtexc/internal/diffsim"
	"mtexc/internal/faultinject"
)

// A failure injected into one cell must cost exactly that cell: the
// siblings complete, the table renders the dead cell as FAIL, and the
// error carries enough context to reproduce the failing simulation.
func TestInjectedFailureIsolatedToCell(t *testing.T) {
	t.Setenv(FailCellEnv, "Figure5:2")
	opt := Options{Insts: 30_000, Benchmarks: []string{"cmp", "vor"}, Parallelism: 4}
	tab, err := Figure5(opt)
	if tab == nil {
		t.Fatal("no partial table returned alongside the failure")
	}
	var ee *ExperimentError
	if !errors.As(err, &ee) {
		t.Fatalf("Figure5 returned %v, want *ExperimentError", err)
	}
	if len(ee.Cells) != 1 || ee.Cells[0].Index != 2 {
		t.Fatalf("failed cells = %+v, want exactly cell 2", ee.Cells)
	}
	ce := ee.Cells[0]
	// Cell 2 of a 2-bench × 4-config grid is (cmp, multi(3)).
	if !tab.FailedAt(0, 2) {
		t.Error("table cell (0,2) not marked FAIL")
	}
	if !strings.Contains(tab.String(), "FAIL") {
		t.Errorf("text rendering lacks a FAIL marker:\n%s", tab)
	}
	if !strings.Contains(tab.CSV(), "FAIL") {
		t.Error("CSV rendering lacks a FAIL marker")
	}
	// The average row inherits the poisoned column.
	if !tab.FailedAt(tab.Row("average"), 2) {
		t.Error("average row not poisoned by the failed contributor")
	}
	// Every other cell completed with a real value.
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			if r == 0 && c == 2 {
				continue
			}
			if tab.FailedAt(r, c) {
				t.Errorf("sibling cell (%d,%d) also failed", r, c)
			}
		}
	}
	// The failure report reproduces the cell: configuration captured,
	// repro command runnable.
	if ce.Config == nil {
		t.Fatal("cell error lost its configuration")
	}
	repro := ce.Repro()
	for _, want := range []string{"mtexcsim", "-bench cmp", "-mech multithreaded", "-idle 3"} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro %q missing %q", repro, want)
		}
	}
	if ce.Fingerprint == "" {
		t.Error("cell error lost its journal fingerprint")
	}
}

// A journaled suite must resume to byte-identical tables: a full run,
// a run resumed from a truncated (killed) journal, and a resume of
// the complete journal all render the same bytes — the last without
// simulating anything.
func TestResumeByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ndjson")
	opt := Options{Insts: 30_000, Benchmarks: []string{"cmp", "vor"}, Parallelism: 4}
	run := func(resume bool) (*Table, *Journal) {
		t.Helper()
		j, err := OpenJournal(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Journal = j
		tab, err := Figure5(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return tab, j
	}

	full, j0 := run(false)
	want := full.String()
	if j0.Appends() == 0 {
		t.Fatal("fresh run journaled nothing")
	}

	// Simulate a mid-suite kill: keep the first three journal lines
	// and a torn fragment of the fourth.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 5 {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	kept := bytes.Join(lines[:3], nil)
	kept = append(kept, lines[3][:len(lines[3])/2]...) // torn line, no newline
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, j1 := run(true)
	if got := resumed.String(); got != want {
		t.Errorf("resumed table differs from the full run:\n--- full ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if j1.Hits() == 0 {
		t.Error("resume simulated every cell; journal entries not reused")
	}
	if j1.Appends() == 0 {
		t.Error("resume of a truncated journal appended nothing")
	}

	// The journal is now complete: one more resume runs zero
	// simulations and still renders the same bytes.
	again, j2 := run(true)
	if got := again.String(); got != want {
		t.Errorf("fully-journaled resume differs:\n%s", got)
	}
	if n := j2.Appends(); n != 0 {
		t.Errorf("fully-journaled resume still simulated %d runs", n)
	}
}

// A per-cell deadline must turn an overrunning simulation into an
// ordinary failed cell wrapping context.DeadlineExceeded, on the
// single-machine path and on the shared-L2 cluster path alike, and the
// repro line of a timed-out cluster cell must carry the deadline.
func TestCellTimeoutFailsCell(t *testing.T) {
	cases := []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"Table2", Table2},
		{"SharedL2", SharedL2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{
				Insts:       20_000,
				Benchmarks:  []string{"cmp"},
				Parallelism: 2,
				CellTimeout: time.Microsecond,
			}
			_, err := tc.run(opt)
			var ee *ExperimentError
			if !errors.As(err, &ee) {
				t.Fatalf("%s under a 1µs deadline returned %v, want *ExperimentError", tc.name, err)
			}
			for _, ce := range ee.Cells {
				var cancelled *cpu.CancelledError
				if !errors.As(ce.Cause, &cancelled) || !errors.Is(ce.Cause, context.DeadlineExceeded) {
					t.Fatalf("cell %d cause = %v, want *cpu.CancelledError wrapping DeadlineExceeded", ce.Index, ce.Cause)
				}
				if ce.Cores > 1 && !strings.Contains(ce.Repro(), "-cores") {
					t.Errorf("cluster cell %d repro lacks -cores: %s", ce.Index, ce.Repro())
				}
				if !strings.Contains(ce.Repro(), "-cell-timeout") {
					t.Errorf("cell %d repro lacks -cell-timeout: %s", ce.Index, ce.Repro())
				}
			}
		})
	}
}

// A panic inside a single-flighted computation must fail every cell
// that consumes it — with the panic preserved as the cause — rather
// than silently handing waiters a zero value (sync.Once marks itself
// done even when f panics, so without the recover the second caller
// would see the zero value with err == nil). One case per value type
// the harness single-flights: shared baselines and the fault
// campaign's reference runs and unfaulted baselines.
func TestBaselinePanicPropagates(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"baseline", func(t *testing.T) { checkFlightPanic(t, &NewBaselineCache().flight) }},
		{"fault-ref", func(t *testing.T) { checkFlightPanic(t, &flight[*diffsim.RefRun]{}) }},
		{"fault-base", func(t *testing.T) { checkFlightPanic(t, &flight[*faultinject.Baseline]{}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

func checkFlightPanic[V comparable](t *testing.T, f *flight[V]) {
	var zero V
	for i := 0; i < 2; i++ {
		v, err := f.get("k", func() (V, error) {
			panic("computation blew up")
		})
		var pe *panicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want *panicError", i, err)
		}
		if !strings.Contains(err.Error(), "computation blew up") {
			t.Errorf("caller %d lost the panic value: %v", i, err)
		}
		if v != zero {
			t.Errorf("caller %d got a partial value %+v with an error", i, v)
		}
	}
	if f.Runs() != 1 {
		t.Errorf("panicking computation ran %d times, want 1 (still single-flighted)", f.Runs())
	}
}
