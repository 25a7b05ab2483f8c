package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	s := NewSet()
	c := s.Counter("cycles")
	c.Inc()
	c.Add(9)
	if s.Get("cycles") != 10 {
		t.Errorf("cycles = %d, want 10", s.Get("cycles"))
	}
	if s.Counter("cycles") != c {
		t.Error("Counter did not return the same instance")
	}
	if s.Get("missing") != 0 {
		t.Error("missing counter nonzero")
	}
}

func TestRatio(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(30)
	s.Counter("b").Add(10)
	if got := s.Ratio("a", "b"); got != 3 {
		t.Errorf("Ratio = %v, want 3", got)
	}
	if got := s.Ratio("a", "zero"); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want 0", got)
	}
}

func TestHistogramMoments(t *testing.T) {
	h := NewHistogram("h")
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Mean() != 5 {
		t.Errorf("mean = %v, want 5", h.Mean())
	}
	if math.Abs(h.StdDev()-2) > 1e-9 {
		t.Errorf("stddev = %v, want 2", h.StdDev())
	}
	if h.Min() != 2 || h.Max() != 9 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	if got := h.Percentile(50); got != 4 {
		t.Errorf("p50 = %d, want 4", got)
	}
	if got := h.Percentile(100); got != 9 {
		t.Errorf("p100 = %d, want 9", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("e")
	if h.Mean() != 0 || h.StdDev() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram returns nonzero summary")
	}
}

// TestPercentileCacheInvalidation pins the sorted-keys cache: observing
// a new value after a Percentile call must invalidate it, while
// re-observing an existing bucket must keep the cached order usable.
func TestPercentileCacheInvalidation(t *testing.T) {
	h := NewHistogram("c")
	h.Observe(10)
	h.Observe(20)
	if got := h.Percentile(50); got != 10 {
		t.Fatalf("p50 = %d, want 10", got)
	}
	h.Observe(20) // existing bucket: cache stays valid
	if got := h.Percentile(50); got != 20 {
		t.Errorf("p50 after reweight = %d, want 20", got)
	}
	h.Observe(1) // new bucket: cache must rebuild
	if got := h.Percentile(25); got != 1 {
		t.Errorf("p25 after new bucket = %d, want 1", got)
	}
	if got := h.Percentile(100); got != 20 {
		t.Errorf("p100 = %d, want 20", got)
	}
}

func TestSetStringHistogramPercentiles(t *testing.T) {
	s := NewSet()
	h := s.Histogram("lat")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	out := s.String()
	for _, want := range []string{"p50=50", "p95=95", "p99=99", "sd="} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestSetEach(t *testing.T) {
	s := NewSet()
	s.Counter("a").Add(1)
	s.Histogram("b").Observe(2)
	s.Counter("c").Add(3)
	var order []string
	s.Each(func(name string, c *Counter, h *Histogram) {
		order = append(order, name)
		switch name {
		case "a", "c":
			if c == nil || h != nil {
				t.Errorf("%s not reported as counter", name)
			}
		case "b":
			if h == nil || c != nil {
				t.Errorf("%s not reported as histogram", name)
			}
		}
	})
	if strings.Join(order, ",") != "a,b,c" {
		t.Errorf("Each order = %v", order)
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Counter("first").Add(1)
	s.Histogram("second").Observe(5)
	out := s.String()
	if !strings.Contains(out, "first") || !strings.Contains(out, "second") {
		t.Errorf("String() missing entries:\n%s", out)
	}
	if strings.Index(out, "first") > strings.Index(out, "second") {
		t.Error("registration order not preserved")
	}
}

// mapOnlyHistogram is a histogram without the dense array: every
// sample goes through the bucket map, the reference representation.
func mapOnlyHistogram(name string) *Histogram {
	h := NewHistogram(name)
	h.dense = nil
	return h
}

// histSummary renders everything a histogram reports, in the Set's
// output format plus a percentile sweep.
func histSummary(h *Histogram) string {
	s := fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%d max=%d sum=%v p:",
		h.Count(), h.Mean(), h.StdDev(), h.Min(), h.Max(), h.Sum())
	for _, p := range []float64{0, 0.1, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100} {
		s += fmt.Sprintf(" %d", h.Percentile(p))
	}
	return s
}

func TestDenseBucketsMatchMapOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Samples straddle both edges of the dense range.
	sample := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return int64(rng.Intn(8)) - 4
		case 1:
			return denseBuckets - 4 + int64(rng.Intn(8))
		case 2:
			return int64(rng.Intn(denseBuckets))
		}
		return int64(rng.Intn(4*denseBuckets)) - denseBuckets
	}
	draw := func(n int) []int64 {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = sample()
		}
		return vs
	}
	// build returns a fresh histogram over vs, dense or map-only, so
	// every merge operand starts from its own untouched copy.
	build := func(name string, dense bool, vs []int64) *Histogram {
		h := mapOnlyHistogram(name)
		if dense {
			h = NewHistogram(name)
		}
		for i, v := range vs {
			h.Observe(v)
			if i%17 == 16 {
				_ = h.Percentile(50) // interleave cached percentile queries
			}
		}
		return h
	}
	for trial := 0; trial < 100; trial++ {
		va, vb := draw(rng.Intn(300)), draw(rng.Intn(300))
		if got, want := histSummary(build("a", true, va)), histSummary(build("a", false, va)); got != want {
			t.Fatalf("trial %d: dense histogram\n got %s\nwant %s", trial, got, want)
		}
		want := build("a", false, va)
		want.Merge(build("b", false, vb))
		merges := map[string]*Histogram{
			"dense+dense": build("a", true, va),
			"dense+map":   build("a", true, va),
			"map+dense":   build("a", false, va),
		}
		merges["dense+dense"].Merge(build("b", true, vb))
		merges["dense+map"].Merge(build("b", false, vb))
		merges["map+dense"].Merge(build("b", true, vb))
		for name, h := range merges {
			if got := histSummary(h); got != histSummary(want) {
				t.Fatalf("trial %d: %s merge\n got %s\nwant %s", trial, name, got, histSummary(want))
			}
		}
	}
}
