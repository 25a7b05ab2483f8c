package harness

import "testing"

func TestPTOrganization(t *testing.T) {
	t.Parallel()
	tab, err := PTOrganization(Options{Insts: 150_000, Benchmarks: []string{"cmp", "mph"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tab.String())
	for _, row := range []string{"compress", "murphi"} {
		for _, mech := range []string{"traditional", "multi(1)", "hardware"} {
			lin := tab.Cell(row, mech+"/lin")
			two := tab.Cell(row, mech+"/2lvl")
			if lin <= 0 || two <= 0 {
				t.Errorf("%s %s: nonpositive penalties (%f, %f)", row, mech, lin, two)
			}
			// A deeper walk cannot be meaningfully cheaper.
			if two < lin*0.8 {
				t.Errorf("%s %s: two-level walk (%f) much cheaper than linear (%f)", row, mech, two, lin)
			}
		}
		// The multithreaded mechanism keeps its advantage under the
		// deeper organization.
		if !(tab.Cell(row, "multi(1)/2lvl") < tab.Cell(row, "traditional/2lvl")) {
			t.Errorf("%s: multithreaded lost its advantage under two-level walks", row)
		}
	}
}
