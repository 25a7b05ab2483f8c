package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"mtexc/internal/core"
	"mtexc/internal/telemetry"
	"mtexc/internal/workload"
)

// Options controls experiment scale. The zero value means the full
// suite at the default instruction budget.
type Options struct {
	// Insts is the per-run application-instruction budget (default
	// 1,000,000 — runs are length-scaled from the paper's 100M).
	Insts uint64
	// Benchmarks restricts the suite (names or abbreviations).
	Benchmarks []string
	// Mixes overrides Figure 7's multiprogrammed combinations
	// (default: the paper's eight).
	Mixes [][3]string
	// Progress, when non-nil, receives one line per completed run.
	// Writes are serialized and issued one full line at a time, so
	// concurrent completions never interleave partial lines.
	Progress io.Writer
	// Parallelism bounds the simulations running concurrently within
	// one experiment (0 = one per available CPU, 1 = serial). Tables
	// are assembled by cell index, so the result is identical at any
	// setting.
	Parallelism int
	// Baselines, when non-nil, shares perfect-TLB baseline results
	// across experiments: each distinct machine shape × workload mix
	// simulates its baseline once per cache.
	Baselines *BaselineCache
	// Journal, when non-nil, records every completed simulation to a
	// crash-safe NDJSON file and answers repeat requests from it —
	// within a run (cross-experiment dedupe) and across runs (resume
	// after a crash or kill). See OpenJournal.
	Journal *Journal
	// CellTimeout bounds the wall-clock time of each simulation; an
	// overrunning run aborts with a *cpu.CancelledError wrapping
	// context.DeadlineExceeded and the cell reports FAIL. Zero means
	// no deadline.
	CellTimeout time.Duration
	// Context, when non-nil, cancels all in-flight simulations when it
	// is done (e.g. on SIGINT). Defaults to context.Background().
	Context context.Context
	// Telemetry, when non-nil, streams live run state into the process
	// telemetry plane: cell lifecycle metrics and events, in-flight
	// progress probes, and run-trace spans. The plane observes only —
	// tables, fingerprints and journal bytes are identical with it on
	// or off.
	Telemetry *telemetry.Plane
	// Meter, when non-nil, accumulates completion progress for
	// throughput/ETA progress lines and the final run summary.
	Meter *telemetry.Meter
}

func (o Options) insts() uint64 {
	if o.Insts == 0 {
		return 1_000_000
	}
	return o.Insts
}

func (o Options) suite() ([]*workload.Bench, error) {
	if len(o.Benchmarks) == 0 {
		return workload.All(), nil
	}
	var benches []*workload.Bench
	for _, n := range o.Benchmarks {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	return benches, nil
}

// runner executes simulations, caching perfect-TLB baselines so each
// machine shape runs its baseline once per workload set. Its methods
// are safe for the concurrent cell execution driven by forEach. exp
// names the experiment for failure reports and journal entries.
type runner struct {
	opt      Options
	exp      string
	base     *BaselineCache
	journal  *Journal
	failSpec string // MTEXC_FAIL_CELL, read once per runner
}

func newRunner(opt Options, exp string) *runner {
	bc := opt.Baselines
	if bc == nil {
		bc = NewBaselineCache()
	}
	return &runner{opt: opt, exp: exp, base: bc, journal: opt.Journal, failSpec: failCellSpec()}
}

// run simulates one machine with the workloads on its hardware
// contexts, through simulate.
func (r *runner) run(c *cell, cfg core.Config, loads ...core.Workload) (core.Result, error) {
	return r.simulate(c, runKey(cfg, loads), cfg, 1, loads,
		func(ctx context.Context, probe *core.Probe) (core.Result, uint64, error) {
			res, err := core.RunObserved(ctx, cfg, probe, loads...)
			return res, res.AppInsts, err
		})
}

// simulate is the one sequence every harness simulation goes through:
// it lets the owning cell describe itself for failure reports (a
// cores-wide cluster subject when cores > 1), answers from the journal
// when the identical simulation already completed under key, and
// otherwise runs sim under the configured context and per-cell
// deadline with the cell's live probe, journaling the result. sim
// returns the Result to journal and the application instructions
// retired across all its machines.
func (r *runner) simulate(c *cell, key string, cfg core.Config, cores int, loads []core.Workload,
	sim func(ctx context.Context, probe *core.Probe) (core.Result, uint64, error)) (core.Result, error) {
	c.describe(cfg, cores, loads, key)
	// The injection hook fires after describe (so the failure report
	// carries the configuration and a repro command) and before the
	// journal lookup (so it fires on resumed runs too).
	if c != nil && r.failSpec != "" && injectedFailure(r.exp, r.failSpec, c.index) {
		panic(fmt.Sprintf("injected failure (%s=%q)", FailCellEnv, r.failSpec))
	}
	if r.journal != nil {
		if res, ok := r.journal.lookup(key); ok {
			r.noteJournalHit(c, key)
			return res, nil
		}
	}
	ctx, cancel := r.cellContext()
	defer cancel()
	probe := c.telemetry().SimStarted(r.simPhase(c, key))
	res, insts, err := sim(ctx, probe)
	c.telemetry().SimFinished(insts, res.Cycles, res.Stats, err != nil)
	r.opt.Meter.AddSimInsts(insts)
	if err != nil {
		return res, err
	}
	if r.journal != nil {
		appendDone := c.telemetry().JournalAppendBegin()
		jerr := r.journal.record(r.exp, key, cfg, loadNames(loads), res)
		appendDone()
		if jerr != nil {
			return res, jerr
		}
	}
	return res, nil
}

// cellContext is the context one simulation runs under: the run-wide
// Options.Context (e.g. cancelled on SIGINT), bounded by
// Options.CellTimeout when one is set.
func (r *runner) cellContext() (context.Context, context.CancelFunc) {
	ctx := r.opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if r.opt.CellTimeout > 0 {
		return context.WithTimeout(ctx, r.opt.CellTimeout)
	}
	return ctx, func() {}
}

// simPhase labels what a launching simulation is for the live cell
// view: the run matching the cell's subject fingerprint is the
// subject, anything else the cell executes is a baseline.
func (r *runner) simPhase(c *cell, key string) string {
	if c == nil {
		return "sim"
	}
	if _, _, ck := c.snapshot(); ck != key {
		return "baseline"
	}
	return "sim"
}

// noteJournalHit classifies a journal answer for telemetry: a hit on
// the cell's own subject fingerprint is a resume (the cell's
// simulation survives from a previous run or experiment), anything
// else is baseline dedupe.
func (r *runner) noteJournalHit(c *cell, key string) {
	if c == nil {
		return
	}
	if _, _, ck := c.snapshot(); ck == key {
		c.tel.ResumeHit(key)
		r.opt.Meter.CellResumed()
	} else {
		c.tel.JournalHit()
	}
}

// progressMu serializes Progress writers across all runners: the
// command-line driver runs several experiments concurrently against
// one stderr, and a torn line helps nobody.
var progressMu sync.Mutex

func (r *runner) log(format string, args ...any) {
	if r.opt.Progress == nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	progressMu.Lock()
	io.WriteString(r.opt.Progress, line)
	progressMu.Unlock()
}

func mixKey(benches []*workload.Bench) string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.Short()
	}
	return strings.Join(names, "-")
}

// shapeKey identifies a perfect-TLB baseline: the full configuration
// with the exception-architecture fields normalized away. Every other
// field (machine shape, predictor, knobs, workload mix) must match,
// or penalties would conflate mechanism cost with configuration
// differences.
func shapeKey(cfg core.Config, benches []*workload.Bench) string {
	cfg.Mech = core.MechPerfect
	cfg.QuickStart = false
	cfg.Limit = core.LimitNone
	return fmt.Sprintf("%s|%+v", mixKey(benches), cfg)
}

func asWorkloads(benches []*workload.Bench) []core.Workload {
	ws := make([]core.Workload, len(benches))
	for i, b := range benches {
		ws[i] = b
	}
	return ws
}

// compare runs cfg against its cached perfect baseline.
func (r *runner) compare(c *cell, cfg core.Config, benches ...*workload.Bench) (core.Comparison, error) {
	subj, err := r.run(c, cfg, asWorkloads(benches)...)
	if err != nil {
		return core.Comparison{}, err
	}
	r.log("  %-14s %-13s %9d cycles  %6d fills  IPC %.2f%s",
		mixKey(benches), label(cfg), subj.Cycles, subj.DTLBMisses, subj.IPC,
		r.opt.Meter.Suffix())

	// Winners of the baseline singleflight run the simulation
	// themselves; only the cells that actually blocked on another
	// worker's run charge the wait.
	ranBaseline := false
	endWait := c.telemetry().BaselineWaitBegin()
	perf, err := r.base.get(shapeKey(cfg, benches), func() (core.Result, error) {
		ranBaseline = true
		c.telemetry().BaselineRan()
		pcfg := cfg
		pcfg.Mech = core.MechPerfect
		pcfg.QuickStart = false
		pcfg.Limit = core.LimitNone
		return r.run(c, pcfg, asWorkloads(benches)...)
	})
	if !ranBaseline {
		endWait()
	}
	if err != nil {
		return core.Comparison{}, err
	}
	return core.Comparison{Subject: subj, Perfect: perf}, nil
}

func label(cfg core.Config) string {
	s := cfg.Mech.String()
	if cfg.QuickStart {
		s = "quickstart"
	}
	if cfg.Limit != core.LimitNone {
		s += fmt.Sprintf("/limit%d", cfg.Limit)
	}
	return s
}

// baseConfig is the Table 1 machine scaled to the harness budget.
// contexts = application threads + idle contexts for handlers.
func (r *runner) baseConfig(mech core.Mechanism, appThreads, idleContexts int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mech = mech
	cfg.Contexts = appThreads + idleContexts
	cfg.MaxInsts = r.opt.insts()
	cfg.MaxCycles = 400 * r.opt.insts()
	return cfg
}

// Figure2 regenerates the pipeline-depth trend: traditional-trap
// penalty cycles per miss on an 8-wide machine with 3, 7 and 11
// stages between fetch and execute.
func Figure2(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure2")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	depths := []int{3, 7, 11}
	cols := make([]string, len(depths))
	for i, d := range depths {
		cols[i] = fmt.Sprintf("%d stages", d)
	}
	t := NewTable("Figure 2: software TLB miss penalty vs pipeline depth (penalty cycles/miss, traditional)", names(benches), cols)
	err = r.forEach(len(benches)*len(depths), func(c *cell) error {
		bi, di := c.index/len(depths), c.index%len(depths)
		cfg := r.baseConfig(core.MechTraditional, 1, 0).WithPipeDepth(depths[di])
		cmp, err := r.compare(c, cfg, benches[bi])
		if err != nil {
			return err
		}
		t.Set(bi, di, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(depths), i%len(depths)) })
	t.AddAverageRow()
	return t, err
}

// Figure3 regenerates the machine-width trend: the fraction of
// execution time spent on TLB miss handling for 2/4/8-wide machines
// with 32/64/128-entry windows, normalized to the 2-wide case as the
// paper plots it.
func Figure3(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure3")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	shapes := []struct {
		width, window int
	}{{2, 32}, {4, 64}, {8, 128}}
	cols := make([]string, len(shapes))
	for i, s := range shapes {
		cols[i] = fmt.Sprintf("%dw/%dwin", s.width, s.window)
	}
	t := NewTable("Figure 3: relative TLB miss handling time vs machine width (normalized to 2-wide)", names(benches), cols)
	t.Format = "%10.2f"
	// The cells are independent runs; the 2-wide normalization is a
	// serial pass over the collected grid.
	rel := make([]float64, len(benches)*len(shapes))
	err = r.forEach(len(rel), func(c *cell) error {
		bi, si := c.index/len(shapes), c.index%len(shapes)
		s := shapes[si]
		cfg := r.baseConfig(core.MechTraditional, 1, 0).WithWidth(s.width, s.window)
		cmp, err := r.compare(c, cfg, benches[bi])
		if err != nil {
			return err
		}
		rel[c.index] = cmp.RelativeTLBTime()
		return nil
	})
	for bi := range benches {
		base := rel[bi*len(shapes)]
		for si := range shapes {
			if base > 0 {
				t.Set(bi, si, rel[bi*len(shapes)+si]/base)
			} else {
				t.Set(bi, si, 0)
			}
		}
	}
	// A failed 2-wide run poisons its whole row — every cell in the
	// row is normalized to it.
	markFailedCells(t, err, func(i int) [][2]int {
		bi, si := i/len(shapes), i%len(shapes)
		if si == 0 {
			row := make([][2]int, len(shapes))
			for s := range shapes {
				row[s] = [2]int{bi, s}
			}
			return row
		}
		return one(bi, si)
	})
	t.AddAverageRow()
	return t, err
}

// Figure5 regenerates the mechanism comparison: penalty cycles per
// miss for the traditional trap, multithreaded handling with one and
// three idle contexts, and the hardware walker.
func Figure5(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure5")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	type config struct {
		name string
		cfg  core.Config
	}
	configs := []config{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"multi(3)", r.baseConfig(core.MechMultithreaded, 1, 3)},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
	cols := make([]string, len(configs))
	for i, c := range configs {
		cols[i] = c.name
	}
	t := NewTable("Figure 5: TLB miss penalty by exception architecture (penalty cycles/miss)", names(benches), cols)
	err = r.forEach(len(benches)*len(configs), func(c *cell) error {
		bi, ci := c.index/len(configs), c.index%len(configs)
		cmp, err := r.compare(c, configs[ci].cfg, benches[bi])
		if err != nil {
			return err
		}
		t.Set(bi, ci, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(configs), i%len(configs)) })
	t.AddAverageRow()
	return t, err
}

func names(benches []*workload.Bench) []string {
	ns := make([]string, len(benches))
	for i, b := range benches {
		ns[i] = b.Name()
	}
	return ns
}

// Table3 regenerates the limit studies: the average multithreaded(3)
// penalty with each overhead removed in turn, bracketed by the
// traditional and hardware mechanisms.
func Table3(opt Options) (*Table, error) {
	r := newRunner(opt, "Table3")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name  string
		mech  core.Mechanism
		idle  int
		limit core.LimitStudy
	}{
		{"traditional", core.MechTraditional, 0, core.LimitNone},
		{"multithreaded", core.MechMultithreaded, 3, core.LimitNone},
		{"no exec bw", core.MechMultithreaded, 3, core.LimitNoExecBW},
		{"no window", core.MechMultithreaded, 3, core.LimitNoWindow},
		{"no fetch bw", core.MechMultithreaded, 3, core.LimitNoFetchBW},
		{"instant fetch", core.MechMultithreaded, 3, core.LimitInstantFetch},
		{"hardware", core.MechHardware, 0, core.LimitNone},
	}
	rowNames := make([]string, len(rows))
	for i, rw := range rows {
		rowNames[i] = rw.name
	}
	t := NewTable("Table 3: limit studies — average penalty cycles/miss", rowNames, []string{"penalty/miss"})
	// Collect the full row × bench grid in parallel, then reduce each
	// row serially so the averages sum in a fixed order.
	pen := make([]float64, len(rows)*len(benches))
	err = r.forEach(len(pen), func(c *cell) error {
		ri, bi := c.index/len(benches), c.index%len(benches)
		rw := rows[ri]
		cfg := r.baseConfig(rw.mech, 1, rw.idle)
		cfg.Limit = rw.limit
		cmp, err := r.compare(c, cfg, benches[bi])
		if err != nil {
			return err
		}
		pen[c.index] = cmp.PenaltyPerMiss()
		return nil
	})
	for ri := range rows {
		var sum float64
		for bi := range benches {
			sum += pen[ri*len(benches)+bi]
		}
		t.Set(ri, 0, sum/float64(len(benches)))
	}
	// Each row averages over the benchmarks: any failed contributor
	// invalidates its row's mean.
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(benches), 0) })
	return t, err
}

// Figure6 regenerates the quick-start evaluation.
func Figure6(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure6")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	quick := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick.QuickStart = true
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"traditional", r.baseConfig(core.MechTraditional, 1, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"quickstart(1)", quick},
		{"hardware", r.baseConfig(core.MechHardware, 1, 0)},
	}
	rowNames := names(benches)
	cols := make([]string, len(configs))
	for i, c := range configs {
		cols[i] = c.name
	}
	t := NewTable("Figure 6: quick-starting multithreaded handler (penalty cycles/miss)", rowNames, cols)
	err = r.forEach(len(benches)*len(configs), func(c *cell) error {
		bi, ci := c.index/len(configs), c.index%len(configs)
		cmp, err := r.compare(c, configs[ci].cfg, benches[bi])
		if err != nil {
			return err
		}
		t.Set(bi, ci, cmp.PenaltyPerMiss())
		return nil
	})
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(configs), i%len(configs)) })
	t.AddAverageRow()
	return t, err
}

// PaperMixes are Figure 7's three-application combinations.
var PaperMixes = [...][3]string{
	{"adm", "gcc", "vor"},
	{"apl", "cmp", "h2d"},
	{"apl", "dbl", "vor"},
	{"dbl", "gcc", "h2d"},
	{"adm", "cmp", "vor"},
	{"adm", "h2d", "mph"},
	{"apl", "dbl", "mph"},
	{"cmp", "gcc", "mph"},
}

// Figure7 regenerates the multiprogrammed evaluation: three
// application threads plus one idle context.
func Figure7(opt Options) (*Table, error) {
	r := newRunner(opt, "Figure7")
	mixes := opt.Mixes
	if len(mixes) == 0 {
		mixes = PaperMixes[:]
	}
	quick := r.baseConfig(core.MechMultithreaded, 3, 1)
	quick.QuickStart = true
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"traditional", r.baseConfig(core.MechTraditional, 3, 0)},
		{"multi(1)", r.baseConfig(core.MechMultithreaded, 3, 1)},
		{"quickstart(1)", quick},
		{"hardware", r.baseConfig(core.MechHardware, 3, 0)},
	}
	rowNames := make([]string, len(mixes))
	for i, m := range mixes {
		rowNames[i] = fmt.Sprintf("%s-%s-%s", m[0], m[1], m[2])
	}
	cols := make([]string, len(configs))
	for i, c := range configs {
		cols[i] = c.name
	}
	cols = append(cols, "hdl-active%")
	t := NewTable("Figure 7: TLB miss penalties with 3 applications on the SMT (penalty cycles/miss)", rowNames, cols)
	t.Note = "hdl-active%: fraction of cycles a handler context is busy under multi(1) — the paper reports 5-40%, averaging ~20%"
	// Resolve the workload mixes up front so cell bodies are pure runs.
	mixBenches := make([][]*workload.Bench, len(mixes))
	for mi, mix := range mixes {
		for _, n := range mix {
			b, err := workload.ByName(n)
			if err != nil {
				return nil, err
			}
			mixBenches[mi] = append(mixBenches[mi], b)
		}
	}
	err := r.forEach(len(mixes)*len(configs), func(c *cell) error {
		mi, ci := c.index/len(configs), c.index%len(configs)
		cc := configs[ci]
		cmp, err := r.compare(c, cc.cfg, mixBenches[mi]...)
		if err != nil {
			return err
		}
		t.Set(mi, ci, cmp.PenaltyPerMiss())
		if cc.name == "multi(1)" {
			active := float64(cmp.Subject.Stats.Get("handler.activecycles")) /
				float64(cmp.Subject.Cycles) * 100
			t.Set(mi, len(configs), active)
		}
		return nil
	})
	// The multi(1) cell also feeds the hdl-active% column.
	markFailedCells(t, err, func(i int) [][2]int {
		mi, ci := i/len(configs), i%len(configs)
		if configs[ci].name == "multi(1)" {
			return [][2]int{{mi, ci}, {mi, len(configs)}}
		}
		return one(mi, ci)
	})
	t.AddAverageRow()
	return t, err
}

// Table4 regenerates the speedup summary: per-benchmark speedup over
// the traditional mechanism for each architecture, plus TLB miss rate
// and base IPC.
func Table4(opt Options) (*Table, error) {
	r := newRunner(opt, "Table4")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	quick1 := r.baseConfig(core.MechMultithreaded, 1, 1)
	quick1.QuickStart = true
	quick3 := r.baseConfig(core.MechMultithreaded, 1, 3)
	quick3.QuickStart = true
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"perfect%", core.Config{}}, // filled from the baseline
		{"hw%", r.baseConfig(core.MechHardware, 1, 0)},
		{"multi1%", r.baseConfig(core.MechMultithreaded, 1, 1)},
		{"multi3%", r.baseConfig(core.MechMultithreaded, 1, 3)},
		{"quick1%", quick1},
		{"quick3%", quick3},
	}
	cols := []string{"baseIPC", "miss/Kinst"}
	for _, c := range configs {
		cols = append(cols, c.name)
	}
	t := NewTable("Table 4: speedup over traditional software (percent), miss rate and base IPC", names(benches), cols)
	t.Format = "%10.2f"
	// Phase 1: the traditional run per benchmark — every speedup cell
	// divides by its cycle count, so it runs first.
	trads := make([]core.Comparison, len(benches))
	err1 := r.forEach(len(benches), func(c *cell) error {
		bi := c.index
		trad, err := r.compare(c, r.baseConfig(core.MechTraditional, 1, 0), benches[bi])
		if err != nil {
			return err
		}
		trads[bi] = trad
		t.Set(bi, 0, trad.Perfect.IPC)
		t.Set(bi, 1, float64(trad.Subject.DTLBMisses)/float64(trad.Subject.AppInsts)*1e3)
		return nil
	})
	// A failed traditional run poisons its whole row: every speedup
	// cell divides by it.
	markFailedCells(t, err1, func(bi int) [][2]int {
		row := make([][2]int, len(t.Cols))
		for c := range t.Cols {
			row[c] = [2]int{bi, c}
		}
		return row
	})
	// Phase 2: one cell per benchmark × mechanism.
	err2 := r.forEach(len(benches)*len(configs), func(c *cell) error {
		bi, ci := c.index/len(configs), c.index%len(configs)
		trad := trads[bi]
		var cycles uint64
		if ci == 0 {
			cycles = trad.Perfect.Cycles
		} else {
			cmp, err := r.compare(c, configs[ci].cfg, benches[bi])
			if err != nil {
				return err
			}
			cycles = cmp.Subject.Cycles
		}
		speedup := (float64(trad.Subject.Cycles)/float64(cycles) - 1) * 100
		t.Set(bi, 2+ci, speedup)
		return nil
	})
	markFailedCells(t, err2, func(i int) [][2]int { return one(i/len(configs), 2+i%len(configs)) })
	return t, joinExperimentErrors("Table4", err1, err2)
}

// Table2 summarizes the synthetic suite: the analogue of the paper's
// benchmark table, with misses scaled to a 100M-instruction run.
func Table2(opt Options) (*Table, error) {
	r := newRunner(opt, "Table2")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	t := NewTable("Table 2: benchmark summary (DTLB misses scaled to 100M instructions)", names(benches), []string{"misses/100M", "baseIPC"})
	t.Format = "%10.1f"
	err = r.forEach(len(benches), func(c *cell) error {
		bi := c.index
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		cmp, err := r.compare(c, cfg, benches[bi])
		if err != nil {
			return err
		}
		t.Set(bi, 0, float64(cmp.Subject.DTLBMisses)/float64(cmp.Subject.AppInsts)*1e8)
		t.Set(bi, 1, cmp.Perfect.IPC)
		return nil
	})
	markFailedCells(t, err, func(bi int) [][2]int { return [][2]int{{bi, 0}, {bi, 1}} })
	return t, err
}

// Ablations evaluates the Section 4 design choices beyond the paper's
// own studies: handler fetch priority, window reservation and
// same-page relinking, as average penalty cycles/miss deltas.
func Ablations(opt Options) (*Table, error) {
	r := newRunner(opt, "Ablations")
	benches, err := opt.suite()
	if err != nil {
		return nil, err
	}
	mk := func(mod func(*core.Config)) core.Config {
		cfg := r.baseConfig(core.MechMultithreaded, 1, 1)
		mod(&cfg)
		return cfg
	}
	rows := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline multi(1)", mk(func(*core.Config) {})},
		{"no fetch priority", mk(func(c *core.Config) { c.NoHandlerFetchPriority = true })},
		{"no window reservation", mk(func(c *core.Config) { c.NoWindowReservation = true })},
		{"no same-page relink", mk(func(c *core.Config) { c.NoRelink = true })},
		{"long handler (+12 insts)", mk(func(c *core.Config) {
			c.Handler.ExtraPrologue += 8
			c.Handler.ExtraDependent += 4
		})},
		{"round-robin fetch", mk(func(c *core.Config) { c.FetchRoundRobin = true })},
		{"retire width 8", mk(func(c *core.Config) { c.RetireWidth = 8 })},
		{"4-way set-assoc DTLB", mk(func(c *core.Config) { c.DTLBWays = 4 })},
		{"gshare predictor", mk(func(c *core.Config) { c.BranchPredictor = "gshare" })},
		{"bimodal predictor", mk(func(c *core.Config) { c.BranchPredictor = "bimodal" })},
	}
	rowNames := make([]string, len(rows))
	for i, rw := range rows {
		rowNames[i] = rw.name
	}
	t := NewTable("Ablations: multithreaded(1) design choices — average penalty cycles/miss", rowNames, []string{"penalty/miss"})
	pen := make([]float64, len(rows)*len(benches))
	err = r.forEach(len(pen), func(c *cell) error {
		ri, bi := c.index/len(benches), c.index%len(benches)
		cmp, err := r.compare(c, rows[ri].cfg, benches[bi])
		if err != nil {
			return err
		}
		pen[c.index] = cmp.PenaltyPerMiss()
		return nil
	})
	for ri := range rows {
		var sum float64
		for bi := range benches {
			sum += pen[ri*len(benches)+bi]
		}
		t.Set(ri, 0, sum/float64(len(benches)))
	}
	markFailedCells(t, err, func(i int) [][2]int { return one(i/len(benches), 0) })
	return t, err
}
