package harness

import (
	"strings"
	"testing"
)

// TestReportEndToEnd runs the full reproduction report at a reduced
// scale. It is the most expensive test in the suite and is skipped
// under -short.
func TestReportEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("report runs the whole evaluation")
	}
	var sb strings.Builder
	opt := Options{
		Insts:      120_000,
		Benchmarks: []string{"cmp", "vor", "mph"},
		Mixes:      [][3]string{{"cmp", "vor", "mph"}},
	}
	if err := Report(opt, &sb); err != nil {
		t.Fatalf("report failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"# mtexc reproduction report", "## Claims", "REPRODUCED", "11/11 claims reproduced"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if strings.Contains(out, "NOT REPRODUCED") {
		t.Error("report contains failed claims")
	}
}
