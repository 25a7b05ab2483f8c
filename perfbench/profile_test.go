package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protocol-buffer writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// syntheticProfile encodes two samples in runtime/pprof's layout:
// location 1 holds an inlined frame (leaf first), location 2 a plain
// one; sample values are samples/count and cpu/nanoseconds, the first
// sample packed and the second unpacked.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mtexc/internal/cpu.(*Machine).collectReady", "mtexc/internal/cpu.(*Machine).issue", "mtexc/internal/cpu.(*Machine).step"}
	p := &pb{}
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	p.bytes(2, (&pb{}).packed(1, 1, 2).packed(2, 1, 10_000_000).b)
	p.bytes(2, (&pb{}).varint(1, 2).varint(2, 2).varint(2, 20_000_000).b)
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).bytes(4, (&pb{}).varint(1, 2).b).b)
	p.bytes(4, (&pb{}).varint(1, 2).varint(3, 0x4000).bytes(4, (&pb{}).varint(1, 3).varint(2, 580).b).b)
	for i := uint64(1); i <= 3; i++ {
		p.bytes(5, (&pb{}).varint(1, i).varint(2, 4+i).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.bytes(6, nil) // an empty trailing string must not shift indices
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestParseProfile(t *testing.T) {
	got, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{10_000_000, []string{machine + "collectReady", machine + "issue", machine + "step"}},
		{20_000_000, []string{machine + "step"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseProfile = %+v, want %+v", got, want)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Fatal("parseProfile accepted garbage")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		machine + "step":                            "cpu",
		"mtexc/internal/isa/asm.(*Builder).Emit":    "isa",
		"mtexc/internal/stats.(*Histogram).Observe": "stats",
		"runtime.mapaccess2_fast64":                 "runtime.maps",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime.maps",
		"runtime.mallocgc":                          "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerMetrics(t *testing.T) {
	const ms = int64(time.Millisecond)
	samples := []sample{
		{10 * ms, []string{machine + "collectReady", machine + "issue", machine + "step", machine + "runTo"}},
		{20 * ms, []string{"mtexc/internal/stats.(*Histogram).Observe", machine + "retire", machine + "step"}},
		{5 * ms, []string{"internal/runtime/maps.(*Map).getWithKey", machine + "fetch", machine + "step"}},
		{5 * ms, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{4 * ms, []string{"mtexc/internal/harness.(*Journal).record", "mtexc/internal/harness.(*runner).run"}},
		{4 * ms, []string{cpuPkg + "NewOnSubstrate", cpuPkg + "New", "mtexc/internal/core.runDetailedWindow", "mtexc/internal/core.SampleCompare"}},
		// cpu.New outside SampleCompare is no window set-up.
		{2 * ms, []string{cpuPkg + "New", "mtexc/internal/core.RunObserved"}},
	}
	sp := newSpans()
	for i := 0; i < 10; i++ {
		sp.total["cpu.new"] += time.Millisecond
		sp.count["cpu.new"]++
	}
	tot := totals{passes: 2, cycles: 1000, simInsts: 4000, allocBytes: 8000, sims: 80, gcs: 6}
	m, warnings := layerMetrics(attribute(samples), tot, sp, 5)

	for name, want := range map[string]float64{
		"cpu.step.ns_per_cycle":           35_000, // 35 ms under step over 1000 cycles
		"cpu.issue.ns_per_cycle":          10_000,
		"cpu.collect_ready.ns_per_cycle":  10_000,
		"cpu.retire.ns_per_cycle":         20_000,
		"cpu.fetch.ns_per_cycle":          5_000,
		"cpu.compact_window.ns_per_cycle": 0,
		"stats.ns_per_cycle":              20_000, // self time only
		"runtime.maps.share":              5.0 / 50,
		"runtime.gc.share":                5.0 / 50,
		"harness.self.share":              4.0 / 50,
		"harness.journal_append.ms":       2, // 4 ms over 2 passes
		"core.window_setup.share":         4.0 / 50,
		"topology.ns_per_cycle":           0,
		"harness.sims":                    40,
		"runtime.gc.count":                3,
		"runtime.alloc_bytes_per_inst":    2,
		"cpu.new.ms":                      2, // 10 ms over 5 set-ups
		"cpu.new.count":                   2,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, fn := range []string{"cpu.compact_window", "topology", "fastpath"} {
		found := false
		for _, w := range warnings {
			found = found || strings.Contains(w, " "+fn+";")
		}
		if !found {
			t.Errorf("no warning for %s among %q", fn, warnings)
		}
	}
}
