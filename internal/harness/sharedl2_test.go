package harness

import (
	"math"
	"testing"
)

// TestSharedL2Shape: the topology table must carry one row per
// cluster shape and one column per mechanism, with every cell filled
// by a finite number (cluster cells run several cores, so the budget
// here is deliberately tiny — ordering claims need the full budget
// and live in EXPERIMENTS.md, not in this suite).
func TestSharedL2Shape(t *testing.T) {
	t.Parallel()
	tab, err := SharedL2(Options{Insts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	rows := []string{"solo", "2c +cmp", "4c +cmp", "2c +vor", "4c +vor"}
	cols := []string{"traditional", "multi(1)", "multi(3)", "hardware"}
	for _, r := range rows {
		if tab.Row(r) == -1 {
			t.Fatalf("missing row %q", r)
		}
		for _, c := range cols {
			v := tab.Cell(r, c)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("cell %s/%s = %v", r, c, v)
			}
		}
	}
}

// TestSharedL2ParallelismIndependence: cluster cells must render
// byte-identically no matter how many harness workers run them — the
// round-robin cluster driver is deterministic and the tables are
// assembled by cell index, not completion order.
func TestSharedL2ParallelismIndependence(t *testing.T) {
	t.Parallel()
	serial, err := SharedL2(Options{Insts: 20_000, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SharedL2(Options{Insts: 20_000, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallelism changed the table:\n-- serial --\n%s\n-- parallel --\n%s",
			serial.String(), parallel.String())
	}
}
