package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/cpu"
	"mtexc/internal/fastpath"
	"mtexc/internal/harness"
	"mtexc/internal/mem"
	"mtexc/internal/topology"
	"mtexc/internal/vm"
	"mtexc/internal/workload"
)

// Workload sizes. They are part of the goldens: changing one means
// regenerating golden/outputs.json (and, for the sampled budget,
// golden/reference.json).
const (
	// exactInsts is half the `make experiments` budget of Figure 5, so
	// a run of four passes stays short even when the host is slow.
	exactInsts = 60_000
	// sharedInsts is the per-core budget of the shared-L2 table.
	sharedInsts = 30_000
	// sampledInsts is the functional budget of each SampleCompare call.
	sampledInsts = 5_000_000
	// sampledSpec gives 5 windows per call at sampledInsts.
	sampledSpec = "1000000:10000:10000"
)

// fig5Benches is the Figure 5 suite; fig5-exact permutes its order by
// seed. sampledBenches are the two TLB-heavy benchmarks fig5-sampled
// estimates.
var (
	fig5Benches    = workload.Names()
	sampledBenches = []string{"murphi", "compress"}
)

// mechConfig is one Figure 5 column: the mechanism and the number of
// idle contexts it gets for handlers.
type mechConfig struct {
	name string
	mech core.Mechanism
	idle int
}

var fig5Mechs = []mechConfig{
	{"traditional", core.MechTraditional, 0},
	{"multi(1)", core.MechMultithreaded, 1},
	{"multi(3)", core.MechMultithreaded, 3},
	{"hardware", core.MechHardware, 0},
}

// machineConfig mirrors the harness's Table 1 machine scaled to insts.
func machineConfig(m mechConfig, insts uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mech = m.mech
	cfg.Contexts = 1 + m.idle
	cfg.MaxInsts = insts
	cfg.MaxCycles = 400 * insts
	return cfg
}

// distinctConfigs lists the machine shapes a Figure 5 style workload
// builds: one per mechanism, plus a perfect-TLB baseline per distinct
// context count (a baseline keeps its subject's contexts).
func distinctConfigs(insts uint64) []core.Config {
	var cfgs, perfect []core.Config
	seen := make(map[int]bool)
	for _, m := range fig5Mechs {
		cfg := machineConfig(m, insts)
		cfgs = append(cfgs, cfg)
		if !seen[cfg.Contexts] {
			seen[cfg.Contexts] = true
			cfg.Mech = core.MechPerfect
			perfect = append(perfect, cfg)
		}
	}
	return append(cfgs, perfect...)
}

// sharedShapes mirrors harness.SharedL2's rows: the measured murphi
// core plus co-runners.
var sharedShapes = []struct {
	cores    int
	corunner string
}{{1, ""}, {2, "compress"}, {4, "compress"}, {2, "vortex"}, {4, "vortex"}}

// passStats is what one pass of a workload did, read from its outputs
// and from the harness journal.
type passStats struct {
	wall, cpu time.Duration
	outputs   map[string]any // op name -> output, compared with the goldens
	// simInsts counts cycle-accurately simulated instructions.
	simInsts uint64
	// cycles is the per-cycle denominator of the stage metrics:
	// simulated cycles summed over cores (harness workloads) or
	// detailed instructions (fig5-sampled; see README.md).
	cycles uint64
	// globalCycles counts topology round-robin cycles.
	globalCycles uint64
	// funcInsts counts instructions the functional tier executed.
	funcInsts    uint64
	windows      int
	sims         int64
	baselineRuns int64
}

// benchWorkload is one named workload. setup builds, once, every
// distinct image, machine, engine and cluster the workload uses,
// recording a span per call; pass runs all of the workload's ops once.
// The seed draws order, a permutation of the workload's items
// (benchmarks, sampled ops or cluster shapes); it changes the order of
// the work, never its amount.
type benchWorkload struct {
	name  string
	items int
	setup func(order []int, sp *spans) error
	pass  func(order []int, dir string) (passStats, error)
}

var workloads = []benchWorkload{
	{"fig5-exact", len(fig5Benches), fig5ExactSetup, fig5ExactPass},
	{"fig5-sampled", len(sampledBenches) * len(fig5Mechs), fig5SampledSetup, fig5SampledPass},
	{"sharedl2", len(sharedShapes), sharedL2Setup, sharedL2Pass},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// permuted returns names in the order given by a seed permutation.
func permuted(names []string, order []int) []string {
	out := make([]string, len(order))
	for i, j := range order {
		out[i] = names[j]
	}
	return out
}

// buildAndLoad builds b's image in m's memory and attaches it with a
// warm page table, as core.RunObserved does.
func buildAndLoad(sp *spans, m *cpu.Machine, b *workload.Bench) error {
	var img *vm.Image
	if err := sp.time("workload.build", func() (err error) {
		img, err = b.Build(m.Phys(), 1)
		return err
	}); err != nil {
		return err
	}
	return sp.time("cpu.load", func() error {
		if _, err := m.AddProgram(img); err != nil {
			return err
		}
		m.WarmPageTable(img.Space)
		return nil
	})
}

func fig5ExactSetup(order []int, sp *spans) error {
	for _, name := range permuted(fig5Benches, order) {
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		for _, cfg := range distinctConfigs(exactInsts) {
			var m *cpu.Machine
			sp.time("cpu.new", func() error { m = cpu.New(cfg); return nil })
			if err := buildAndLoad(sp, m, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func fig5ExactPass(order []int, dir string) (passStats, error) {
	return harnessPass(dir, func(opt harness.Options) (*harness.Table, error) {
		opt.Insts = exactInsts
		opt.Benchmarks = permuted(fig5Benches, order)
		return harness.Figure5(opt)
	})
}

func sharedL2Setup(order []int, sp *spans) error {
	for _, si := range order {
		shape := sharedShapes[si]
		for _, cfg := range distinctConfigs(sharedInsts) {
			var cl *topology.Cluster
			if err := sp.time("topology.new", func() (err error) {
				cl, err = topology.New(topology.Config{Cores: shape.cores, Core: cfg})
				return err
			}); err != nil {
				return err
			}
			for i := 0; i < shape.cores; i++ {
				name := shape.corunner
				if i == 0 {
					name = "murphi"
				}
				b, err := workload.ByName(name)
				if err != nil {
					return err
				}
				if err := sp.time("topology.load", func() error { return cl.Load(i, b) }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sharedL2Pass runs harness.SharedL2, whose cell order is fixed by the
// harness; the seed permutes only sharedl2's set-up order.
func sharedL2Pass(_ []int, dir string) (passStats, error) {
	return harnessPass(dir, func(opt harness.Options) (*harness.Table, error) {
		opt.Insts = sharedInsts
		return harness.SharedL2(opt)
	})
}

// harnessPass runs one serial harness experiment with a fresh baseline
// cache and a fresh journal, then reads the journal back for the
// simulated instruction and cycle counts of every simulation.
func harnessPass(dir string, run func(harness.Options) (*harness.Table, error)) (passStats, error) {
	path := filepath.Join(dir, "journal.ndjson")
	j, err := harness.OpenJournal(path, false)
	if err != nil {
		return passStats{}, err
	}
	bc := harness.NewBaselineCache()
	sw := startWatch()
	// A failed cell comes back as a FAIL mark in the table and as err;
	// the golden comparison counts it, so err needs no separate path.
	t, runErr := run(harness.Options{Parallelism: 1, Baselines: bc, Journal: j})
	ps := passStats{sims: j.Appends(), baselineRuns: bc.Runs()}
	sw.stop(&ps)
	if err := j.Close(); err != nil {
		return ps, err
	}
	if t == nil {
		return ps, runErr
	}
	ps.outputs = tableOutputs(t)
	return ps, readJournal(path, &ps)
}

// tableOutputs names every data cell "row/column"; the average row is
// derived (and its float sum depends on row order), so it is no op.
func tableOutputs(t *harness.Table) map[string]any {
	out := make(map[string]any)
	for r, row := range t.Rows {
		if row == "average" {
			continue
		}
		for c, col := range t.Cols {
			if t.FailedAt(r, c) {
				out[row+"/"+col] = "FAIL"
			} else {
				out[row+"/"+col] = t.Cells[r][c]
			}
		}
	}
	return out
}

// readJournal sums the journaled simulations' counts. A single-core
// entry records its application instructions and cycles; a cluster
// entry records core 0's application instructions only, so its
// instructions are every core's retired instructions ("coreN." keys).
func readJournal(path string, ps *passStats) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		var e harness.JournalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("journal %s: %w", path, err)
		}
		if _, cluster := e.Counters["core0.cycles"]; !cluster {
			ps.simInsts += e.Meta.AppInsts
			ps.cycles += e.Meta.Cycles
			continue
		}
		var longest uint64
		for i := 0; ; i++ {
			c, ok := e.Counters[fmt.Sprintf("core%d.cycles", i)]
			if !ok {
				break
			}
			ps.cycles += c
			ps.simInsts += e.Counters[fmt.Sprintf("core%d.retire.insts", i)]
			longest = max(longest, c)
		}
		ps.globalCycles += longest
	}
	return sc.Err()
}

func fig5SampledSetup(order []int, sp *spans) error {
	spec, err := core.ParseSampleSpec(sampledSpec)
	if err != nil {
		return err
	}
	built := make(map[string]bool)
	for _, op := range sampledOps(order) {
		name, _, _ := strings.Cut(op, "/")
		if built[name] {
			continue
		}
		built[name] = true
		b, err := workload.ByName(name)
		if err != nil {
			return err
		}
		var img *vm.Image
		if err := sp.time("workload.build", func() (err error) {
			img, err = b.Build(mem.NewPhysical(), 1)
			return err
		}); err != nil {
			return err
		}
		if err := sp.time("fastpath.new", func() error {
			_, err := fastpath.New(img, fastpath.Options{Unaligned: core.DefaultConfig().TrapUnaligned})
			return err
		}); err != nil {
			return err
		}
	}
	// Windows build fresh machines; the distinct shapes are the four
	// mechanisms and their perfect baselines at the window length.
	for _, cfg := range distinctConfigs(spec.Warmup + spec.Window) {
		sp.time("cpu.new", func() error { cpu.New(cfg); return nil })
	}
	return nil
}

// sampledOps lists fig5-sampled's ops, "bench/mechanism", in seed
// order: order permutes the benchmark-major cell list.
func sampledOps(order []int) []string {
	var ops []string
	for _, b := range sampledBenches {
		for _, m := range fig5Mechs {
			ops = append(ops, b+"/"+m.name)
		}
	}
	return permuted(ops, order)
}

func fig5SampledPass(order []int, _ string) (passStats, error) {
	spec, err := core.ParseSampleSpec(sampledSpec)
	if err != nil {
		return passStats{}, err
	}
	ps := passStats{outputs: make(map[string]any)}
	sw := startWatch()
	for _, op := range sampledOps(order) {
		bench, mech, _ := strings.Cut(op, "/")
		b, err := workload.ByName(bench)
		if err != nil {
			return ps, err
		}
		var mc mechConfig
		for _, m := range fig5Mechs {
			if m.name == mech {
				mc = m
			}
		}
		s, err := core.SampleCompare(machineConfig(mc, sampledInsts), spec, b)
		if err != nil {
			ps.outputs[op] = "FAIL: " + err.Error()
			continue
		}
		ps.outputs[op] = s
		ps.simInsts += s.DetailedInsts
		ps.cycles += s.DetailedInsts
		ps.funcInsts += s.TotalInsts
		ps.windows += s.Windows
	}
	sw.stop(&ps)
	return ps, nil
}

// stopwatch times a pass in wall time and in the process's CPU time
// (user and system, every thread). The kernel leaves out of CPU time
// what the hypervisor steals from the VM.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (s stopwatch) stop(ps *passStats) {
	ps.wall = time.Since(s.wall)
	ps.cpu = cpuTime() - s.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleAccuracy returns the mean |estimate - exact| penalty per miss
// and the mean 95% CI half-width over fig5-sampled's ops, against the
// exact reference at the same budget. Failed ops, already counted by
// the golden check, are left out.
func sampleAccuracy(outputs map[string]any, reference map[string]float64) (absErr, ci95 float64, err error) {
	ops := make([]string, 0, len(outputs))
	for op := range outputs {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	n := 0
	for _, op := range ops {
		s, ok := outputs[op].(core.SampledComparison)
		if !ok {
			continue
		}
		exact, ok := reference[op]
		if !ok {
			return 0, 0, fmt.Errorf("golden/reference.json has no %s", op)
		}
		absErr += math.Abs(s.PenaltyPerMiss - exact)
		ci95 += s.CI95
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return absErr / float64(n), ci95 / float64(n), nil
}
