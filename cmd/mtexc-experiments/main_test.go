package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-table1", "-journal", ""}, &out, &errb); rc != 0 {
		t.Fatalf("-table1: rc = %d; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "Table 1: base simulated machine configuration") {
		t.Errorf("missing Table 1 header:\n%s", out.String())
	}
}

func TestTable2Smoke(t *testing.T) {
	var out, errb bytes.Buffer
	rc := run([]string{"-table2", "-bench", "compress", "-insts", "20000", "-journal", ""}, &out, &errb)
	if rc != 0 {
		t.Fatalf("-table2: rc = %d; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "compress") {
		t.Errorf("table missing compress row:\n%s", out.String())
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-journal", ""}, &out, &errb); rc != 2 {
		t.Errorf("no experiments selected: rc = %d, want 2", rc)
	}
	if !strings.Contains(errb.String(), "Usage of mtexc-experiments") {
		t.Errorf("stderr missing usage text: %s", errb.String())
	}
	if rc := run([]string{"-made-up-flag"}, &out, &errb); rc != 2 {
		t.Errorf("unknown flag: rc = %d, want 2", rc)
	}
}

// TestSampleCheckSmoke is the short end-to-end form of the CI
// sampling-smoke job: exact vs sampled Figure 5 on one benchmark must
// agree within the reported confidence intervals.
func TestSampleCheckSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 5 twice")
	}
	var out, errb bytes.Buffer
	rc := run([]string{
		"-sample-check", "-bench", "mph", "-insts", "400000",
		"-sample", "50000:10000:10000", "-journal", "",
	}, &out, &errb)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, errb.String())
	}
	for _, want := range []string{"Figure 5 (sampled", "confidence half-width", "sample-check: all cells within tolerance"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadSampleSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-fig5", "-sample", "bogus", "-journal", ""}, &out, &errb); rc != 2 {
		t.Errorf("bad -sample spec: rc = %d, want 2", rc)
	}
	// Only Figure 5 has a sampled mode.
	for _, other := range []string{"-table2", "-all", "-table1", "-sharedl2"} {
		if rc := run([]string{"-fig5", other, "-sample", "50000:10000:10000", "-journal", ""}, &out, &errb); rc != 2 {
			t.Errorf("-sample with %s: rc = %d, want 2", other, rc)
		}
	}
}

// TestSampledFigure5FailureReport: a failed sampled cell reports like
// any other — a partial table with FAIL markers, a FAILED line, and a
// repro line carrying the sampling spec and the deadline.
func TestSampledFigure5FailureReport(t *testing.T) {
	t.Parallel()
	var out, errb bytes.Buffer
	rc := run([]string{"-fig5", "-sample", "50000:10000:10000", "-bench", "mph",
		"-insts", "200000", "-cell-timeout", "1us", "-journal", ""}, &out, &errb)
	if rc != 1 {
		t.Fatalf("rc = %d, want 1; stderr: %s", rc, errb.String())
	}
	if !strings.Contains(out.String(), "Figure 5 (sampled 50000:10000:10000)") || !strings.Contains(out.String(), "FAIL") {
		t.Errorf("stdout lacks the partial sampled table:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "FAILED Figure5Sampled cell 0") {
		t.Errorf("stderr lacks a FAILED line:\n%s", errb.String())
	}
	if !regexp.MustCompile(`repro: mtexcsim .*-sample 50000:10000:10000.*-cell-timeout 1µs`).MatchString(errb.String()) {
		t.Errorf("stderr lacks a sampled repro line:\n%s", errb.String())
	}
}

// TestSampledFigure5Resume: sampled runs are journaled, so a resumed
// sampled Figure 5 renders the same bytes without simulating.
func TestSampledFigure5Resume(t *testing.T) {
	t.Parallel()
	journal := filepath.Join(t.TempDir(), "journal.ndjson")
	args := []string{"-fig5", "-sample", "40000:4000:4000", "-bench", "mph",
		"-insts", "120000", "-journal", journal, "-v"}
	var first, errb bytes.Buffer
	if rc := run(args, &first, &errb); rc != 0 {
		t.Fatalf("first run: rc = %d; stderr: %s", rc, errb.String())
	}
	var again, errb2 bytes.Buffer
	if rc := run(append(args, "-resume"), &again, &errb2); rc != 0 {
		t.Fatalf("resumed run: rc = %d; stderr: %s", rc, errb2.String())
	}
	if first.String() != again.String() {
		t.Errorf("resumed output differs:\n--- first ---\n%s--- resumed ---\n%s", first.String(), again.String())
	}
	if !strings.Contains(errb2.String(), "journal: 7 hit(s), 0 new entries") {
		t.Errorf("resume simulated again:\n%s", errb2.String())
	}
}
