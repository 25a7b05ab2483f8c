// Command perfbench is the repository benchmark: it runs one workload
// (fig5-exact, fig5-sampled or sharedl2) serially for a fixed time,
// checks every output against the committed goldens, and prints its
// metrics, the last line being one JSON object. With -trace 1 it also
// profiles itself and attributes host time to the simulator's layers.
// See README.md for the workloads and metric definitions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig5-exact --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// A run repeats the set-up phase at least setupReps times and for at
// least setupMin, so short set-ups are sampled often; setup_s is the
// median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// minPasses is the fewest passes an untraced run measures. cpu_s is
// the cheapest of them: other tenants of the host only ever add time,
// in stretches longer than a pass, so the least of several passes is
// the steadiest estimate of the program's own cost (README.md).
const minPasses = 4

// buildDir holds the binary, the harness journals of a running
// benchmark and the traced run's CPU profile; run.sh builds there.
const buildDir = ".bench_build/perfbench"

// scratchDir makes a fresh directory under buildDir.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, prefix)
}

//go:embed golden/outputs.json
var outputsJSON []byte

//go:embed golden/reference.json
var referenceJSON []byte

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: fig5-exact, fig5-sampled or sharedl2")
		seed     = fs.Int64("seed", 1, "seed of the input order")
		seconds  = fs.Int("seconds", 15, "measured seconds")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		goldens  = fs.String("write-goldens", "", "run every workload once and write its outputs to this file")
		refGolds = fs.String("write-reference", "", "simulate fig5-sampled's cells exactly and write the penalties to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *goldens != "" {
		return report(stderr, writeGoldens(*goldens))
	}
	if *refGolds != "" {
		return report(stderr, writeReference(*refGolds))
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload fig5-exact|fig5-sampled|sharedl2, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	var want map[string]map[string]json.RawMessage
	if err := json.Unmarshal(outputsJSON, &want); err != nil {
		return report(stderr, fmt.Errorf("golden/outputs.json: %w", err))
	}
	var reference map[string]float64
	if err := json.Unmarshal(referenceJSON, &reference); err != nil {
		return report(stderr, fmt.Errorf("golden/reference.json: %w", err))
	}
	if len(want[w.name]) == 0 {
		return report(stderr, fmt.Errorf("golden/outputs.json has no %s outputs", w.name))
	}
	dir, err := scratchDir("run-")
	if err != nil {
		return report(stderr, err)
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, order: rand.New(rand.NewSource(*seed)).Perm(w.items), dir: dir,
		want: want[w.name], reference: reference, stderr: stderr}
	var res result
	if *trace == 0 {
		res, err = b.measure(time.Duration(*seconds) * time.Second)
	} else {
		res, err = b.traced(time.Duration(*seconds)*time.Second, filepath.Join(buildDir, w.name+".pprof"))
	}
	if err != nil {
		return report(stderr, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "%s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return report(stderr, err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func report(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "perfbench: %v\n", err)
	return 1
}

// bench is one run of one workload.
type bench struct {
	w         benchWorkload
	order     []int
	dir       string
	want      map[string]json.RawMessage
	reference map[string]float64
	stderr    io.Writer

	attempted, failed int
}

// setup repeats the set-up phase, each time after a GC so one
// repetition's garbage is not collected in the next, and returns the
// median CPU time of a repetition, the spans summed over all
// repetitions and their number.
func (b *bench) setup() (time.Duration, *spans, int, error) {
	sp := newSpans()
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMin {
		runtime.GC()
		cpu0 := cpuTime()
		if err := b.w.setup(b.order, sp); err != nil {
			return 0, nil, 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		times = append(times, (cpuTime() - cpu0).Seconds())
	}
	return time.Duration(median(times) * float64(time.Second)), sp, len(times), nil
}

// passes runs passes until d has elapsed and at least min have run,
// checking each pass's outputs against the goldens.
func (b *bench) passes(d time.Duration, min int) ([]passStats, error) {
	var out []passStats
	start := time.Now()
	for len(out) < min || time.Since(start) < d {
		ps, err := b.w.pass(b.order, b.dir)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", b.w.name, len(out)+1, err)
		}
		fmt.Fprintf(b.stderr, "perfbench: %s pass %d: %.3f s wall, %.3f s cpu\n", b.w.name, len(out)+1, ps.wall.Seconds(), ps.cpu.Seconds())
		b.check(ps.outputs)
		out = append(out, ps)
	}
	return out, nil
}

// check counts every golden op as attempted, and as failed when its
// output is missing or differs from the golden at full precision.
func (b *bench) check(outputs map[string]any) {
	for op, want := range b.want {
		b.attempted++
		got, err := json.Marshal(outputs[op])
		if err != nil || !sameJSON(got, want) {
			b.failed++
			fmt.Fprintf(b.stderr, "perfbench: %s op %s: got %s, golden %s\n", b.w.name, op, got, want)
		}
	}
}

func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// measure is the untraced run: the end-to-end metrics.
func (b *bench) measure(d time.Duration) (result, error) {
	setup, _, _, err := b.setup()
	if err != nil {
		return result{}, err
	}
	ps, err := b.passes(d, minPasses)
	if err != nil {
		return result{}, err
	}
	best := cheapest(ps)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return result{}, err
	}
	return b.result(map[string]metric{
		"setup_s":         {setup.Seconds(), "s"},
		"cpu_s":           {best.cpu.Seconds(), "s"},
		"sim_insts_per_s": {float64(best.simInsts) / best.cpu.Seconds(), "insts/s"},
		"peak_rss_mb":     {float64(ru.Maxrss) / 1024, "MB"}, // Maxrss is in KiB on Linux
	}), nil
}

// traced is the traced run: half the time untraced, half under the CPU
// profiler (at least two passes each), then the per-layer attribution
// of the profiled half. The profile is also written to profPath for
// `go tool pprof`.
func (b *bench) traced(d time.Duration, profPath string) (result, error) {
	_, sp, reps, err := b.setup()
	if err != nil {
		return result{}, err
	}
	plain, err := b.passes(d/2, 2)
	if err != nil {
		return result{}, err
	}
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	traced, err := b.passes(d/2, 2)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	runtime.ReadMemStats(&after)
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("reading own CPU profile: %w", err)
	}
	t := totals{passes: len(traced), gcs: after.NumGC - before.NumGC, allocBytes: after.TotalAlloc - before.TotalAlloc}
	var outputs map[string]any
	for _, p := range traced {
		t.add(p)
		outputs = p.outputs
	}
	t.overhead = cheapest(traced).cpu.Seconds()/cheapest(plain).cpu.Seconds() - 1
	t.wall = plain[0].wall
	for _, p := range plain {
		t.wall = min(t.wall, p.wall)
	}
	if b.w.name == "fig5-sampled" {
		if t.absErr, t.ci95, err = sampleAccuracy(outputs, b.reference); err != nil {
			return result{}, err
		}
	}
	m, warnings := layerMetrics(attribute(samples), t, sp, reps)
	for _, w := range warnings {
		fmt.Fprintf(b.stderr, "perfbench: warning: %s\n", w)
	}
	return b.result(m), nil
}

// cheapest returns the pass that took the least CPU time; ps is not
// empty.
func cheapest(ps []passStats) passStats {
	best := ps[0]
	for _, p := range ps[1:] {
		if p.cpu < best.cpu {
			best = p
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spans accumulates the duration and number of calls per span name.
type spans struct {
	total map[string]time.Duration
	count map[string]int
}

func newSpans() *spans {
	return &spans{total: make(map[string]time.Duration), count: make(map[string]int)}
}

// time runs f as one span named name.
func (s *spans) time(name string, f func() error) error {
	start := time.Now()
	err := f()
	s.total[name] += time.Since(start)
	s.count[name]++
	return err
}
