package harness

import (
	"fmt"

	"mtexc/internal/core"
)

// SampledFigure5 holds the sampled-mode mechanism comparison: the
// penalty-cycles-per-miss estimates and the matching 95% confidence
// half-widths, plus the aggregate cost accounting behind the
// speedup claim.
type SampledFigure5 struct {
	// Est mirrors Figure5's table, estimated from sampled windows.
	Est *Table
	// CI holds the 95% confidence half-width for each estimate.
	CI *Table
	// TotalInsts sums the instructions the functional tier committed
	// across all cells (every instruction of every run).
	TotalInsts uint64
	// DetailedInsts sums the cycle-accurately simulated instructions
	// (subject + baseline windows, warm-up included) — the detail
	// fraction is DetailedInsts / (2*TotalInsts), since an exact
	// comparison simulates every instruction twice.
	DetailedInsts uint64
}

// Figure5Sampled regenerates the Figure 5 mechanism comparison in
// sampled mode: each cell fast-forwards the workload on the
// functional tier and simulates only periodic warm-up+window
// stretches cycle-accurately (core.SampleCompareCtx). Cells run under
// the same bounded worker pool as the exact experiments and assemble
// by index, so the tables are identical at any parallelism; each
// cell's windows run under the cell context and CellTimeout like any
// other simulation.
func Figure5Sampled(opt Options, spec core.SampleSpec) (*SampledFigure5, error) {
	r := newRunner(opt, "Figure5Sampled")
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
	out := &SampledFigure5{
		Est: NewTable(fmt.Sprintf("Figure 5 (sampled %s): TLB miss penalty by exception architecture (penalty cycles/miss)", spec),
			names(benches), cols),
		CI: NewTable(fmt.Sprintf("Figure 5 (sampled %s): 95%% confidence half-width", spec),
			names(benches), cols),
	}
	type cellOut struct {
		s  core.SampledComparison
		ok bool
	}
	results := make([]cellOut, len(benches)*len(configs))
	err = r.forEach(len(benches)*len(configs), func(c *cell) error {
		bi, ci := c.index/len(configs), c.index%len(configs)
		cfg := configs[ci].cfg
		c.describe(cfg, 1, []core.Workload{benches[bi]}, "")
		ctx, cancel := r.cellContext()
		defer cancel()
		s, err := core.SampleCompareCtx(ctx, cfg, spec, benches[bi])
		if err != nil {
			return err
		}
		results[c.index] = cellOut{s: s, ok: true}
		out.Est.Set(bi, ci, s.PenaltyPerMiss)
		out.CI.Set(bi, ci, s.CI95)
		return nil
	})
	for _, res := range results {
		if res.ok {
			out.TotalInsts += res.s.TotalInsts
			out.DetailedInsts += res.s.DetailedInsts
		}
	}
	markFailedCells(out.Est, err, func(i int) [][2]int { return one(i/len(configs), i%len(configs)) })
	markFailedCells(out.CI, err, func(i int) [][2]int { return one(i/len(configs), i%len(configs)) })
	out.Est.AddAverageRow()
	out.CI.AddAverageRow()
	return out, err
}
