// Package mtexc_bench regenerates every table and figure of the
// paper's evaluation as Go benchmarks — one benchmark per experiment,
// reporting the paper's metrics via b.ReportMetric. Run with:
//
//	go test -bench=. -benchmem
//
// The instruction budgets are scaled for benchmark turnaround; use
// cmd/mtexc-experiments for full-length regeneration.
package mtexc_bench

import (
	"testing"

	"mtexc/internal/core"
	"mtexc/internal/fastpath"
	"mtexc/internal/harness"
	"mtexc/internal/isa/asm"
	"mtexc/internal/mem"
	"mtexc/internal/workload"
)

const benchInsts = 120_000

func benchOpt() harness.Options {
	return harness.Options{Insts: benchInsts}
}

// BenchmarkTable2Workloads measures the per-benchmark run itself:
// simulated instructions per second for the whole Table 2 suite under
// the multithreaded mechanism, plus each benchmark's miss density.
func BenchmarkTable2Workloads(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Short(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mech = core.MechMultithreaded
			cfg.Contexts = 2
			cfg.MaxInsts = benchInsts
			var lastMiss float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				lastMiss = float64(res.DTLBMisses) / float64(res.AppInsts) * 1e6
			}
			b.ReportMetric(lastMiss, "misses/Minst")
			b.ReportMetric(float64(benchInsts*uint64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
		})
	}
}

// BenchmarkFigure2PipelineDepth regenerates Figure 2 and reports the
// average penalty at each depth plus the per-stage slope.
func BenchmarkFigure2PipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("average", "3 stages"), "penalty@3")
		b.ReportMetric(tab.Cell("average", "7 stages"), "penalty@7")
		b.ReportMetric(tab.Cell("average", "11 stages"), "penalty@11")
		b.ReportMetric((tab.Cell("average", "11 stages")-tab.Cell("average", "3 stages"))/8, "slope")
	}
}

// BenchmarkFigure3Width regenerates Figure 3 and reports the relative
// TLB-handling time growth from 2-wide to 8-wide.
func BenchmarkFigure3Width(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("average", "4w/64win"), "rel@4wide")
		b.ReportMetric(tab.Cell("average", "8w/128win"), "rel@8wide")
	}
}

// BenchmarkFigure5Mechanisms regenerates Figure 5 and reports the
// average penalty per mechanism (the paper's 22.7 / 11.7 / 11.0 /
// 7.3 cycle row).
func BenchmarkFigure5Mechanisms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure5(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("average", "traditional"), "trad")
		b.ReportMetric(tab.Cell("average", "multi(1)"), "multi1")
		b.ReportMetric(tab.Cell("average", "multi(3)"), "multi3")
		b.ReportMetric(tab.Cell("average", "hardware"), "hw")
	}
}

// BenchmarkTable3LimitStudies regenerates Table 3, reporting the
// multithreaded baseline and the dominant (instant-fetch) limit.
func BenchmarkTable3LimitStudies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Table3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("multithreaded", "penalty/miss"), "multi")
		b.ReportMetric(tab.Cell("instant fetch", "penalty/miss"), "instant")
		b.ReportMetric(tab.Cell("hardware", "penalty/miss"), "hw")
	}
}

// BenchmarkFigure6QuickStart regenerates Figure 6, reporting the
// quick-start gain over plain multithreaded handling.
func BenchmarkFigure6QuickStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		m1 := tab.Cell("average", "multi(1)")
		qs := tab.Cell("average", "quickstart(1)")
		b.ReportMetric(m1, "multi1")
		b.ReportMetric(qs, "quickstart")
		b.ReportMetric(m1-qs, "gain")
	}
}

// BenchmarkFigure7Multiprogrammed regenerates Figure 7 over two of
// the paper's mixes (all eight via cmd/mtexc-experiments -fig7).
func BenchmarkFigure7Multiprogrammed(b *testing.B) {
	opt := benchOpt()
	opt.Mixes = [][3]string{{"adm", "gcc", "vor"}, {"cmp", "gcc", "mph"}}
	for i := 0; i < b.N; i++ {
		tab, err := harness.Figure7(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("average", "traditional"), "trad")
		b.ReportMetric(tab.Cell("average", "multi(1)"), "multi1")
		b.ReportMetric(tab.Cell("average", "hardware"), "hw")
	}
}

// BenchmarkTable4Speedups regenerates Table 4 on the heavy TLB
// pressers, reporting the multithreaded speedup over traditional.
func BenchmarkTable4Speedups(b *testing.B) {
	opt := benchOpt()
	opt.Benchmarks = []string{"cmp", "vor"}
	for i := 0; i < b.N; i++ {
		tab, err := harness.Table4(opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("compress", "multi1%"), "cmp-multi1-%")
		b.ReportMetric(tab.Cell("vortex", "multi1%"), "vor-multi1-%")
	}
}

// --- Microbenchmarks of the substrates ---

// BenchmarkSimulatorThroughput measures raw simulation speed on the
// perfect-TLB configuration (the harness's baseline cost).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workload.ByName("mph")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechPerfect
	cfg.MaxInsts = benchInsts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchInsts*uint64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkFunctionalThroughput measures the threaded-code functional
// tier (internal/fastpath) on the same workload — the fast-forward
// speed floor between sampled cycle-accurate windows. The budget is
// larger than benchInsts so one iteration outruns timer granularity;
// a fresh image and engine per iteration keeps decode cost honest.
func BenchmarkFunctionalThroughput(b *testing.B) {
	w, err := workload.ByName("mph")
	if err != nil {
		b.Fatal(err)
	}
	const ffInsts = 2_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := w.Build(mem.NewPhysical(), 1)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := fastpath.New(img, fastpath.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.FastForward(ffInsts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(uint64(ffInsts)*uint64(b.N))/b.Elapsed().Seconds(), "sim-insts/s")
}

// BenchmarkAssembler measures assembly throughput on a representative
// source fragment.
func BenchmarkAssembler(b *testing.B) {
	src := `
		limm r10, 0x40000000
		ldi r1, 64
	loop:
		ldq r3, 0(r10)
		add r2, r2, r3
		addi r10, r10, 8
		addi r1, r1, -1
		bne r1, loop
		stq r2, -8(r10)
		halt
	`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSection6Emulation regenerates the generalized-mechanism
// study (software POPC emulation).
func BenchmarkSection6Emulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Generalized(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("traditional", tab.Cols[0]), "trad")
		b.ReportMetric(tab.Cell("multithreaded(1)", tab.Cols[0]), "multi1")
	}
}

// BenchmarkSection6Unaligned regenerates the unaligned-access study.
func BenchmarkSection6Unaligned(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := harness.Unaligned(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Cell("traditional", tab.Cols[0]), "trad")
		b.ReportMetric(tab.Cell("multithreaded(1)", tab.Cols[0]), "multi1")
	}
}

// --- Machine lifecycle ---

// BenchmarkMachineConstruction measures what every simulation pays
// before its first cycle: building a machine from scratch
// (handler/PAL codegen, predictor and cache allocation) and loading
// the mph workload image.
func BenchmarkMachineConstruction(b *testing.B) {
	w, err := workload.ByName("mph")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mech = core.MechMultithreaded
	cfg.Contexts = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(cfg)
		img, err := w.Build(m.Phys(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.AddProgram(img); err != nil {
			b.Fatal(err)
		}
	}
}
