package harness

import "testing"

func TestTLBSweepInsensitivity(t *testing.T) {
	t.Parallel()
	tab, err := TLBSweep(Options{Insts: 200_000, Benchmarks: []string{"cmp", "vor"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, row := range []string{"compress", "vortex"} {
		f32 := tab.Cell(row, "fills@32")
		f128 := tab.Cell(row, "fills@128")
		// Uniform-random footprints far beyond TLB reach shift fill
		// counts only slightly; monotonicity is the requirement.
		if f32 < f128 {
			t.Errorf("%s: fills grew with TLB size (%f @32 vs %f @128)", row, f32, f128)
		}
		p32 := tab.Cell(row, "pen@32")
		p128 := tab.Cell(row, "pen@128")
		// The paper's claim: the per-miss penalty is broadly
		// insensitive to TLB size.
		if p32 <= 0 || p128 <= 0 {
			t.Errorf("%s: nonpositive penalties %f %f", row, p32, p128)
		}
		ratio := p32 / p128
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s: penalty/miss swings %fx across TLB sizes", row, ratio)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	t.Parallel()
	tab, err := FaultInjection(Options{Insts: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, n := range []string{"cmp", "mph"} {
		zero := tab.Cell(n+" 0% out", "pagefaults")
		half := tab.Cell(n+" 50% out", "pagefaults")
		if zero != 0 {
			t.Errorf("%s: %f page faults with nothing paged out", n, zero)
		}
		if half == 0 {
			t.Errorf("%s: no page faults with half the pages out", n)
		}
		if rev := tab.Cell(n+" 50% out", "reversions"); rev == 0 {
			t.Errorf("%s: no reversions recorded", n)
		}
		slow := tab.Cell(n+" 50% out", "cycles/Kinst")
		fast := tab.Cell(n+" 0% out", "cycles/Kinst")
		if !(slow > fast) {
			t.Errorf("%s: fault-laden run (%f) not slower than clean (%f)", n, slow, fast)
		}
	}
}
