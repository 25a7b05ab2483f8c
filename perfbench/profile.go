package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// sample is one CPU-profile sample: its CPU time and the function
// names on its stack, leaf first, inlined frames included.
type sample struct {
	ns    int64
	stack []string
}

// parseProfile decodes the gzipped protocol-buffer profile that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto),
// keeping only what attribution needs.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs     []string
		valTypes []uint64 // string index of each sample value's type
		raw      []rawSample
		locFuncs = make(map[uint64][]uint64) // location -> function ids, leaf first
		funcName = make(map[uint64]uint64)   // function -> string index
	)
	err = eachField(data, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valTypes = append(valTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendPacked(s.locs, w, v, b)
				case 2:
					s.vals, err = appendPacked(s.vals, w, v, b)
				}
				return err
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// The Go CPU profile's values are samples/count and cpu/nanoseconds.
	vi := len(valTypes) - 1
	for i, t := range valTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile has no sample types")
	}
	out := make([]sample, 0, len(raw))
	for _, r := range raw {
		if vi >= len(r.vals) {
			return nil, errors.New("profile sample lacks its cpu value")
		}
		s := sample{ns: int64(r.vals[vi])}
		for _, l := range r.locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of one protocol-buffer message:
// its number, wire type, and value (varint) or payload (length-
// delimited). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field in either encoding.
func appendPacked(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := uvarint(payload)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, payload = append(dst, x), payload[n:]
	}
	return dst, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const (
	cpuPkg  = "mtexc/internal/cpu."
	machine = cpuPkg + "(*Machine)."
)

// cumulative lists the per-layer metrics that report time under a
// function (anywhere on the stack, once per sample). With under set,
// only stacks that also pass through that function count.
var cumulative = []struct {
	name  string
	fns   []string
	under string
}{
	{"cpu.step", []string{machine + "step"}, ""},
	{"cpu.complete", []string{machine + "complete"}, ""},
	{"cpu.retire", []string{machine + "retire"}, ""},
	{"cpu.issue", []string{machine + "issue"}, ""},
	{"cpu.dispatch", []string{machine + "dispatch"}, ""},
	{"cpu.fetch", []string{machine + "fetch"}, ""},
	{"cpu.collect_ready", []string{machine + "collectReady"}, ""},
	{"cpu.compact_window", []string{machine + "compactWindow"}, ""},
	{"topology", []string{"mtexc/internal/topology.(*Cluster).Run"}, ""},
	{"fastpath", []string{"mtexc/internal/fastpath.(*Engine).FastForward"}, ""},
	{"harness.journal_append", []string{"mtexc/internal/harness.(*Journal).record"}, ""},
	{"core.window_setup", []string{"mtexc/internal/core.transferImage", machine + "WarmPageTable", cpuPkg + "New"},
		"mtexc/internal/core.SampleCompare"},
	{"runtime.gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}, ""},
}

// selfLayers are the packages whose self time is reported per cycle.
var selfLayers = []string{"stats", "obs", "vm", "mem", "cache", "bpred"}

// mapFuncs are the prefixes of the runtime's map and hashing code.
var mapFuncs = []string{"runtime.map", "internal/runtime/maps.", "runtime.memhash", "runtime.strhash"}

// layerOf names the layer a function's self time belongs to: its
// package under mtexc/internal, "runtime.maps" for map code, or "".
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mtexc/internal/"); ok {
		if end := strings.IndexAny(rest, "./"); end >= 0 {
			return rest[:end]
		}
		return rest
	}
	for _, p := range mapFuncs {
		if strings.HasPrefix(fn, p) {
			return "runtime.maps"
		}
	}
	return ""
}

// attribution is profile time by leaf layer (self) and by cumulative
// metric.
type attribution struct {
	total int64
	self  map[string]int64
	cum   map[string]int64
}

func attribute(samples []sample) attribution {
	a := attribution{self: make(map[string]int64), cum: make(map[string]int64)}
	for _, s := range samples {
		a.total += s.ns
		if len(s.stack) > 0 {
			a.self[layerOf(s.stack[0])] += s.ns
		}
		on := make(map[string]bool, len(s.stack))
		for _, fn := range s.stack {
			on[fn] = true
		}
		for _, c := range cumulative {
			if c.under != "" && !on[c.under] {
				continue
			}
			for _, fn := range c.fns {
				if on[fn] {
					a.cum[c.name] += s.ns
					break
				}
			}
		}
	}
	return a
}

// totals are the traced passes' counts, the denominators of the
// per-layer metrics.
type totals struct {
	passes       int
	simInsts     uint64
	cycles       uint64
	globalCycles uint64
	funcInsts    uint64
	windows      int
	sims         int64
	baselineRuns int64
	gcs          uint32
	allocBytes   uint64
	wall         time.Duration // the fastest untraced pass
	overhead     float64
	absErr, ci95 float64
}

func (t *totals) add(p passStats) {
	t.simInsts += p.simInsts
	t.cycles += p.cycles
	t.globalCycles += p.globalCycles
	t.funcInsts += p.funcInsts
	t.windows += p.windows
	t.sims += p.sims
	t.baselineRuns += p.baselineRuns
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// layerMetrics turns the attribution, the traced passes' totals and
// the set-up spans (summed over reps set-ups) into the per-layer
// metrics. A cumulative metric whose functions have no samples reports
// 0 with a warning, so a function can be removed without editing the
// benchmark.
func layerMetrics(a attribution, t totals, sp *spans, reps int) (map[string]metric, []string) {
	m := make(map[string]metric)
	var warnings []string
	cum := func(name string) float64 {
		v := a.cum[name]
		if v == 0 {
			warnings = append(warnings, fmt.Sprintf("no profile samples under %s; its metric reports 0", name))
		}
		return float64(v)
	}
	total := float64(a.total)
	passes := float64(t.passes)
	for _, stage := range []string{"step", "complete", "retire", "issue", "dispatch", "fetch", "collect_ready", "compact_window"} {
		m["cpu."+stage+".ns_per_cycle"] = metric{ratio(cum("cpu."+stage), float64(t.cycles)), "ns/cycle"}
	}
	for _, l := range selfLayers {
		m[l+".ns_per_cycle"] = metric{ratio(float64(a.self[l]), float64(t.cycles)), "ns/cycle"}
	}
	m["runtime.maps.share"] = metric{ratio(float64(a.self["runtime.maps"]), total), "ratio"}
	m["harness.self.share"] = metric{ratio(float64(a.self["harness"]), total), "ratio"}
	m["runtime.gc.share"] = metric{ratio(cum("runtime.gc"), total), "ratio"}
	m["core.window_setup.share"] = metric{ratio(cum("core.window_setup"), total), "ratio"}
	m["fastpath.ns_per_inst"] = metric{ratio(cum("fastpath"), float64(t.funcInsts)), "ns/inst"}
	m["topology.ns_per_cycle"] = metric{ratio(cum("topology"), float64(t.globalCycles)), "ns/cycle"}
	m["harness.journal_append.ms"] = metric{ratio(cum("harness.journal_append")/1e6, passes), "ms"}

	m["harness.sims"] = metric{ratio(float64(t.sims), passes), "count"}
	m["harness.baseline_runs"] = metric{ratio(float64(t.baselineRuns), passes), "count"}
	m["core.windows"] = metric{ratio(float64(t.windows), passes), "count"}
	m["core.detail_fraction"] = metric{ratio(float64(t.simInsts), float64(t.funcInsts)), "ratio"}
	m["core.sample_abs_err"] = metric{t.absErr, "cycles/miss"}
	m["core.sample_ci95"] = metric{t.ci95, "cycles/miss"}
	m["runtime.gc.count"] = metric{ratio(float64(t.gcs), passes), "count"}
	m["runtime.alloc_bytes_per_inst"] = metric{ratio(float64(t.allocBytes), float64(t.simInsts)), "B/inst"}
	m["trace.overhead"] = metric{t.overhead, "ratio"}
	m["wall_s"] = metric{t.wall.Seconds(), "s"}

	for _, name := range []string{"cpu.new", "cpu.load", "workload.build", "fastpath.new", "topology.new", "topology.load"} {
		m[name+".ms"] = metric{ratio(float64(sp.total[name])/float64(time.Millisecond), float64(reps)), "ms"}
	}
	for _, name := range []string{"cpu.new", "cpu.load", "workload.build"} {
		m[name+".count"] = metric{ratio(float64(sp.count[name]), float64(reps)), "count"}
	}
	return m, warnings
}
