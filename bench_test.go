// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark reports the headline metric of its experiment via
// b.ReportMetric so that `go test -bench=. -benchmem` doubles as the
// reproduction harness; EXPERIMENTS.md records the paper-vs-measured values.
package sramco

import (
	"sync"
	"testing"

	"sramco/internal/array"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/exp"
)

var (
	benchOnce sync.Once
	benchFW   *Framework
	benchErr  error
)

func benchFramework(b *testing.B) *Framework {
	b.Helper()
	benchOnce.Do(func() { benchFW, benchErr = NewFramework(TechPaper) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFW
}

// BenchmarkFig2HoldSNMAndLeakage regenerates Fig. 2: HSNM and leakage power
// of 6T-LVT vs 6T-HVT over the supply sweep. Reported metric: the leakage
// ratio at nominal Vdd (paper: ≈20×).
func BenchmarkFig2HoldSNMAndLeakage(b *testing.B) {
	vdds := []float64{0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig2(vdds)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		ratio = last.LeakLVT / last.LeakHVT
	}
	b.ReportMetric(ratio, "leak-ratio@450mV")
}

// BenchmarkFig3ReadAssists regenerates Figs. 3(a)-(d): the LVT/HVT read
// comparison and the three read-assist sweeps. Reported metric: the RSNM
// ratio of HVT to LVT (paper: 1.9×).
func BenchmarkFig3ReadAssists(b *testing.B) {
	var rsnmRatio float64
	for i := 0; i < b.N; i++ {
		a, err := exp.Fig3a(Vdd)
		if err != nil {
			b.Fatal(err)
		}
		rsnmRatio = a.RSNMRatio()
		if _, err := exp.Fig3b(HVT, Vdd, []float64{0.45, 0.50, 0.55, 0.60, 0.64}); err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Fig3c(HVT, Vdd, []float64{0, -0.06, -0.12, -0.18, -0.24}); err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Fig3d(HVT, Vdd, []float64{0.45, 0.40, 0.35, 0.30}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rsnmRatio, "RSNM-HVT/LVT")
}

// BenchmarkFig5WriteAssists regenerates Fig. 5: the wordline-overdrive and
// negative-bitline write-assist sweeps. Reported metric: the write margin
// at the paper's HVT operating point VWL = 540 mV (paper: exactly δ).
func BenchmarkFig5WriteAssists(b *testing.B) {
	var wm540 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig5a(HVT, Vdd, []float64{0.45, 0.49, 0.54, 0.58})
		if err != nil {
			b.Fatal(err)
		}
		wm540 = rows[2].WM
		if _, err := exp.Fig5b(HVT, Vdd, []float64{0, -0.05, -0.10}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(wm540*1e3, "WM@540mV-mV")
}

// BenchmarkReadCurrentFit regenerates the §5 read-current law fit
// I_read = b·(V_DDC−V_SSC−V_t)^a. Reported metric: the fitted exponent a
// (paper: 1.3).
func BenchmarkReadCurrentFit(b *testing.B) {
	var a float64
	for i := 0; i < b.N; i++ {
		r, err := exp.ReadCurrentFit(Vdd)
		if err != nil {
			b.Fatal(err)
		}
		a = r.A
	}
	b.ReportMetric(a, "exponent-a")
}

// BenchmarkTable4Optimize regenerates Table 4: the optimal design
// parameters for all five capacities × four configurations. Reported
// metric: total model evaluations across all 20 searches.
func BenchmarkTable4Optimize(b *testing.B) {
	fw := benchFramework(b)
	var evals int
	for i := 0; i < b.N; i++ {
		rows, err := fw.Table4(PaperCapacities())
		if err != nil {
			b.Fatal(err)
		}
		evals = 0
		for _, r := range rows {
			evals += r.Evaluated
		}
	}
	b.ReportMetric(float64(evals), "model-evals")
}

// BenchmarkFig7DelayEnergyEDP regenerates Fig. 7(a)-(d) and the abstract's
// headline statistics. Reported metrics: average EDP reduction and maximum
// delay penalty of HVT-M2 vs LVT-M2 for 1-16 KB (paper: 59 % and 12 %).
func BenchmarkFig7DelayEnergyEDP(b *testing.B) {
	fw := benchFramework(b)
	var h *Headline
	var blReduction float64
	for i := 0; i < b.N; i++ {
		rows, err := fw.Table4(PaperCapacities())
		if err != nil {
			b.Fatal(err)
		}
		if h, err = HeadlineStats(rows); err != nil {
			b.Fatal(err)
		}
		f7d := exp.Fig7d(rows)
		blReduction = 0
		for _, r := range f7d {
			blReduction += r.BLDelayM1 / r.BLDelayM2
		}
		blReduction /= float64(len(f7d))
	}
	b.ReportMetric(h.AvgEDPReduction*100, "EDP-reduction-%")
	b.ReportMetric(h.MaxDelayPenalty*100, "max-delay-penalty-%")
	b.ReportMetric(blReduction, "avg-BL-delay-reduction-x")
}

// BenchmarkExhaustiveSearch16KB measures the cost of the paper's largest
// single exhaustive search (16 KB; the paper reports the whole §5 sweep
// completes in under two minutes on a 2016 server), on the default
// branch-and-bound path. The space-points metric is the full candidate
// space (Evaluated + SkippedRSNM + PrunedBound) — constant whether or not
// pruning fires — so benchcompare can normalize to ns per candidate point
// instead of misreading a pruning change as a latency shift.
func BenchmarkExhaustiveSearch16KB(b *testing.B) {
	fw := benchFramework(b)
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		opt, err := fw.Optimize(16*1024, HVT, M2)
		if err != nil {
			b.Fatal(err)
		}
		stats = opt.Stats
	}
	b.ReportMetric(float64(stats.Evaluated+stats.SkippedRSNM+stats.PrunedBound), "space-points")
	b.ReportMetric(float64(stats.Evaluated), "model-evals")
	b.ReportMetric(float64(stats.PrunedBound), "pruned-bound")
	b.ReportMetric(float64(stats.Chunks), "chunks")
	b.ReportMetric(float64(stats.Workers), "workers")
}

// BenchmarkExhaustiveSearch16KBPruned pins the branch-and-bound path
// explicitly (the default path falls back to full enumeration only for
// custom objectives) and reports the evaluated/pruned/skipped breakdown, so
// a bound going loose — pruning less while staying correct — shows up in the
// bench log as a bound-eff drop, not just latency drift.
func BenchmarkExhaustiveSearch16KBPruned(b *testing.B) {
	fw := benchFramework(b)
	opts := core.Options{CapacityBits: 16 * 1024 * 8, Flavor: device.HVT, Method: core.M2}
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		opt, err := fw.Core().Optimize(opts)
		if err != nil {
			b.Fatal(err)
		}
		stats = opt.Stats
	}
	b.ReportMetric(float64(stats.Evaluated+stats.SkippedRSNM+stats.PrunedBound), "space-points")
	b.ReportMetric(float64(stats.Evaluated), "model-evals")
	b.ReportMetric(float64(stats.PrunedBound), "pruned-bound")
	b.ReportMetric(float64(stats.SkippedTotal()), "skipped")
	b.ReportMetric(stats.BoundEfficiency(), "bound-eff")
}

// BenchmarkAblationEnergyAccounting re-runs the 16 KB headline comparison
// under the all-columns energy interpretation (DESIGN.md note 1),
// confirming the conclusion is not an artifact of the default accounting.
// Reported metric: EDP reduction of HVT-M2 vs LVT-M2 at 16 KB.
func BenchmarkAblationEnergyAccounting(b *testing.B) {
	fw, err := NewFrameworkWithAccounting(TechPaper, AllColumns)
	if err != nil {
		b.Fatal(err)
	}
	var red float64
	for i := 0; i < b.N; i++ {
		lvt, err := fw.Optimize(16*1024, LVT, M2)
		if err != nil {
			b.Fatal(err)
		}
		hvt, err := fw.Optimize(16*1024, HVT, M2)
		if err != nil {
			b.Fatal(err)
		}
		red = 1 - hvt.Best.Result.EDP/lvt.Best.Result.EDP
	}
	b.ReportMetric(red*100, "EDP-reduction-%")
}

// BenchmarkAblationRailRestriction quantifies what the M1 single-rail
// restriction costs across the paper's capacities. Reported metric: average
// M1/M2 EDP ratio for the HVT arrays.
func BenchmarkAblationRailRestriction(b *testing.B) {
	fw := benchFramework(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = 0
		for _, bits := range PaperCapacities() {
			m1, err := fw.OptimizeWith(Options{CapacityBits: bits, Flavor: HVT, Method: M1})
			if err != nil {
				b.Fatal(err)
			}
			m2, err := fw.OptimizeWith(Options{CapacityBits: bits, Flavor: HVT, Method: M2})
			if err != nil {
				b.Fatal(err)
			}
			ratio += m1.Best.Result.EDP / m2.Best.Result.EDP
		}
		ratio /= float64(len(PaperCapacities()))
	}
	b.ReportMetric(ratio, "M1/M2-EDP")
}

// BenchmarkMonteCarloYield measures the Monte Carlo margin analysis used to
// justify δ = 0.35·Vdd (paper §2). Reported metric: fraction of HVT samples
// whose read SNM falls below δ at nominal bias.
func BenchmarkMonteCarloYield(b *testing.B) {
	var fail float64
	for i := 0; i < b.N; i++ {
		r, err := MonteCarloYield(MCConfig{Flavor: HVT, N: 16, Seed: 7, Metrics: 2 /* RSNM */})
		if err != nil {
			b.Fatal(err)
		}
		fail = r.FailFraction(Delta())
	}
	b.ReportMetric(fail*100, "RSNM-fail-%")
}

// BenchmarkMonteCarloYieldBatched measures the per-sample cost of the
// batched Monte Carlo hot path: full-sim HSNM characterization through the
// reusable per-worker scratch netlists. The samples metric (draws per op)
// lets benchcompare normalize to ns per sample, so a change in the
// benchmark's N is not misread as a latency shift.
func BenchmarkMonteCarloYieldBatched(b *testing.B) {
	const n = 32
	cfg := MCConfig{Flavor: HVT, N: n, Seed: 7, Metrics: 1 /* HSNM */}
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloYield(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n, "samples")
}

// BenchmarkAblationFinFreeze quantifies the value of the N_pre/N_wr fin
// sizing freedom the paper adds to the search (DESIGN.md ablation list):
// the same 4 KB HVT-M2 search with both fin counts frozen at 1. Reported
// metric: frozen/free EDP ratio.
func BenchmarkAblationFinFreeze(b *testing.B) {
	fw := benchFramework(b)
	free := core.Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: core.M2}
	frozen := free
	frozen.Space = core.DefaultSpace()
	frozen.Space.NpreMax = 1
	frozen.Space.NwrMax = 1
	var ratio float64
	for i := 0; i < b.N; i++ {
		f, err := fw.Core().Optimize(free)
		if err != nil {
			b.Fatal(err)
		}
		z, err := fw.Core().Optimize(frozen)
		if err != nil {
			b.Fatal(err)
		}
		ratio = z.Best.Result.EDP / f.Best.Result.EDP
	}
	b.ReportMetric(ratio, "frozen/free-EDP")
}

// BenchmarkParetoFront measures full energy-delay frontier extraction for
// the 4 KB HVT-M2 space (extension beyond the paper's single-objective
// search). Reported metric: frontier size.
func BenchmarkParetoFront(b *testing.B) {
	fw := benchFramework(b)
	var size float64
	for i := 0; i < b.N; i++ {
		front, err := fw.ParetoFront(Options{CapacityBits: 4 * 1024 * 8, Flavor: HVT, Method: M2})
		if err != nil {
			b.Fatal(err)
		}
		size = float64(len(front))
	}
	b.ReportMetric(size, "frontier-points")
}

// BenchmarkExtCornerAnalysis characterizes the paper's HVT-M2 operating
// point across all five process corners (extension). Reported metric:
// worst-corner RSNM in mV.
func BenchmarkExtCornerAnalysis(b *testing.B) {
	read := ReadBias{Vdd: Vdd, VDDC: 0.55, VSSC: -0.24, VWL: Vdd}
	write := WriteBias{Vdd: Vdd, VWL: 0.54, VBL: 0}
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := CornerAnalysis(HVT, read, write)
		if err != nil {
			b.Fatal(err)
		}
		worst = rows[0].RSNM
		for _, r := range rows {
			if r.RSNM < worst {
				worst = r.RSNM
			}
		}
	}
	b.ReportMetric(worst*1e3, "worst-corner-RSNM-mV")
}

// BenchmarkExtTemperatureSweep characterizes the HVT cell from -20 C to
// 125 C (extension). Reported metric: hot/cold leakage ratio.
func BenchmarkExtTemperatureSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := TemperatureSweep(HVT, ReadBias{Vdd: Vdd, VDDC: Vdd, VSSC: 0, VWL: Vdd},
			[]float64{253, 300, 348, 398})
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[len(rows)-1].Leak / rows[0].Leak
	}
	b.ReportMetric(ratio, "leak-125C/-20C")
}

// BenchmarkExtVddScaling runs the supply-scaling-vs-HVT extension
// experiment (fully simulated rails at each supply; §1 argument). Reported
// metric: EDP of LVT@350mV relative to HVT@450mV (expect > 1).
func BenchmarkExtVddScaling(b *testing.B) {
	if testing.Short() {
		b.Skip("per-Vdd characterization skipped in -short mode")
	}
	var rel float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.VddScaling(16*1024*8, []float64{0.35, 0.45})
		if err != nil {
			b.Fatal(err)
		}
		var lvtLow, hvtNom float64
		for _, r := range rows {
			if r.Vdd == 0.35 && r.Flavor == device.LVT {
				lvtLow = r.EDP
			}
			if r.Vdd == 0.45 && r.Flavor == device.HVT {
				hvtNom = r.EDP
			}
		}
		rel = lvtLow / hvtNom
	}
	b.ReportMetric(rel, "LVT@350mV/HVT@450mV-EDP")
}

// BenchmarkExtDividedWordline compares the flat wordline against the
// divided-wordline architecture extension under all-columns accounting
// (where segmentation pays: only the active segment's bitlines are
// disturbed). Reported metric: DWL/flat EDP at 16 KB HVT-M2.
func BenchmarkExtDividedWordline(b *testing.B) {
	fw, err := NewFrameworkWithAccounting(TechPaper, AllColumns)
	if err != nil {
		b.Fatal(err)
	}
	base := Options{CapacityBits: 16 * 1024 * 8, Flavor: HVT, Method: M2}
	var ratio, segs float64
	for i := 0; i < b.N; i++ {
		flat, err := fw.OptimizeWith(base)
		if err != nil {
			b.Fatal(err)
		}
		dwlOpts := base
		dwlOpts.SearchWLSegs = true
		dwl, err := fw.OptimizeWith(dwlOpts)
		if err != nil {
			b.Fatal(err)
		}
		ratio = dwl.Best.Result.EDP / flat.Best.Result.EDP
		segs = float64(dwl.Best.Design.Geom.Segments())
	}
	b.ReportMetric(ratio, "DWL/flat-EDP")
	b.ReportMetric(segs, "chosen-segments")
}

// BenchmarkSensitivity measures the local-optimality certificate around the
// 4 KB HVT-M2 optimum. Reported metric: the tightest neighbor ratio (≥ 1
// certifies the optimum).
func BenchmarkSensitivity(b *testing.B) {
	fw := benchFramework(b)
	opts := core.Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: core.M2}
	opt, err := fw.Core().Optimize(opts)
	if err != nil {
		b.Fatal(err)
	}
	var tightest float64
	for i := 0; i < b.N; i++ {
		sens, err := fw.Core().SensitivityAt(opts, opt.Best)
		if err != nil {
			b.Fatal(err)
		}
		tightest = 1e18
		for _, s := range sens {
			for _, rel := range []float64{s.DownRel, s.UpRel} {
				if rel == rel && rel < tightest { // rel==rel filters NaN
					tightest = rel
				}
			}
		}
	}
	b.ReportMetric(tightest, "tightest-neighbor-rel")
}

// BenchmarkExtBankPartitioning extends the capacity axis beyond the paper's
// 16 KB: a 64 KB HVT-M2 macro optimized as 1-8 banks with a bank decoder
// and H-tree interconnect. Reported metrics: chosen bank count and the
// banked/monolithic EDP ratio.
func BenchmarkExtBankPartitioning(b *testing.B) {
	fw := benchFramework(b)
	opts := core.Options{CapacityBits: 64 * 1024 * 8, Flavor: device.HVT, Method: core.M2}
	var banks, ratio float64
	for i := 0; i < b.N; i++ {
		best, err := fw.Core().OptimizeBanked(opts, 8)
		if err != nil {
			b.Fatal(err)
		}
		mono, err := fw.Core().OptimizeBanked(opts, 1)
		if err != nil {
			b.Fatal(err)
		}
		banks = float64(best.Banks)
		ratio = best.EDP / mono.EDP
	}
	b.ReportMetric(banks, "chosen-banks")
	b.ReportMetric(ratio, "banked/monolithic-EDP")
}

// BenchmarkExtWorkloadSweep re-optimizes both flavors across activity
// factors (extension: the paper fixes α = β = 0.5). Reported metrics: HVT
// EDP gain at idle (α = 0.1) and busy (α = 1.0) 16 KB workloads.
func BenchmarkExtWorkloadSweep(b *testing.B) {
	fw := benchFramework(b)
	var idleGain, busyGain float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.WorkloadSweep(fw.Core(), 16*1024*8, []float64{0.1, 1.0}, []float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Alpha == 0.1 {
				idleGain = r.HVTGain()
			} else {
				busyGain = r.HVTGain()
			}
		}
	}
	b.ReportMetric(idleGain*100, "idle-HVT-gain-%")
	b.ReportMetric(busyGain*100, "busy-HVT-gain-%")
}

// BenchmarkModelEvaluation measures a single analytical array-model
// evaluation — the inner loop of the exhaustive search.
func BenchmarkModelEvaluation(b *testing.B) {
	fw := benchFramework(b)
	opt, err := fw.Optimize(4*1024, HVT, M2)
	if err != nil {
		b.Fatal(err)
	}
	d := opt.Best.Design
	act := Activity{Alpha: 0.5, Beta: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fw.Evaluate(HVT, d, act); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvaluationPrepared measures the same evaluation through the
// chunk-amortized engine the searchers actually use: the validation and the
// (n_r, n_c, rails)-invariant model terms are hoisted into one Prepare, the
// loop pays only the per-(N_pre, N_wr) terms. The gap to
// BenchmarkModelEvaluation is the per-point work the factorization removed.
func BenchmarkModelEvaluationPrepared(b *testing.B) {
	fw := benchFramework(b)
	opt, err := fw.Optimize(4*1024, HVT, M2)
	if err != nil {
		b.Fatal(err)
	}
	d := opt.Best.Design
	tech, err := fw.Core().ArrayTech(HVT)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := array.NewEvaluator(tech, array.Activity{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	if err := ev.Prepare(d.Geom, d.VDDC, d.VSSC, d.VWL); err != nil {
		b.Fatal(err)
	}
	var r array.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.EvalInto(d.Geom.Npre, d.Geom.Nwr, &r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridSearch16KB measures the enlarged hybrid search: the 16 KB
// min-PADP optimization over 8 row groups (every LVT/HVT assignment mask)
// and column-mux ratios up to 4 — the largest candidate space any search in
// the module covers, and the one that leans hardest on the branch-and-bound
// Evaluator. The space-points metric counts the full candidate space
// (Evaluated + SkippedRSNM + PrunedBound), so benchcompare normalizes to ns
// per candidate point and a bound change that merely prunes less does not
// masquerade as a latency shift.
func BenchmarkHybridSearch16KB(b *testing.B) {
	fw := benchFramework(b)
	padp, ok := ObjectiveByName("padp")
	if !ok {
		b.Fatal("padp objective missing")
	}
	sp := core.DefaultSpace()
	sp.MuxMax = 4
	opts := core.Options{
		CapacityBits: 16 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       core.M2,
		Objective:    padp,
		HybridGroups: 8,
		Space:        sp,
	}
	var stats SearchStats
	for i := 0; i < b.N; i++ {
		opt, err := fw.Core().Optimize(opts)
		if err != nil {
			b.Fatal(err)
		}
		stats = opt.Stats
	}
	b.ReportMetric(float64(stats.Evaluated+stats.SkippedRSNM+stats.PrunedBound), "space-points")
	b.ReportMetric(float64(stats.Evaluated), "model-evals")
	b.ReportMetric(float64(stats.PrunedBound), "pruned-bound")
	b.ReportMetric(stats.BoundEfficiency(), "bound-eff")
}
