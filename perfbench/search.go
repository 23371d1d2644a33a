package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sramco"
	"sramco/internal/obs"
)

// searchInput is one search the benchmark runs: a min-objective search of
// the optimize-hybrid population or of a probe, or a probe's Pareto front;
// key names its reference answer.
type searchInput struct {
	KB        int
	Flavor    sramco.Flavor
	Groups    int
	Mux       int
	Objective string
	Pareto    bool
}

func (in searchInput) key() string {
	if in.Pareto {
		return fmt.Sprintf("pareto|kb=%d|flavor=%s", in.KB, in.Flavor)
	}
	return fmt.Sprintf("optimize|kb=%d|flavor=%s|groups=%d|mux=%d|obj=%s", in.KB, in.Flavor, in.Groups, in.Mux, in.Objective)
}

func (in searchInput) options() sramco.Options {
	obj, _ := sramco.ObjectiveByName(in.Objective)
	sp := sramco.DefaultSearchSpace()
	sp.MuxMax = in.Mux
	return sramco.Options{
		CapacityBits: in.KB * 8192,
		Flavor:       in.Flavor,
		Method:       sramco.M2,
		Objective:    obj,
		Space:        sp,
		HybridGroups: in.Groups,
	}
}

// hybridInputs is the optimize-hybrid population: HVT base, M2, 1/4/16 KB ×
// 2/4/8 row groups × mux limit 1/2/4 × {padp, edp}.
func hybridInputs() []searchInput {
	var out []searchInput
	for _, kb := range []int{1, 4, 16} {
		for _, g := range []int{2, 4, 8} {
			for _, mux := range []int{1, 2, 4} {
				for _, obj := range []string{"padp", "edp"} {
					out = append(out, searchInput{KB: kb, Flavor: sramco.HVT, Groups: g, Mux: mux, Objective: obj})
				}
			}
		}
	}
	return out
}

// plainInputs is the paper's default optimize set, M2 min-EDP over 1–16 KB
// × LVT/HVT: the search probe of workloads that search nothing themselves.
func plainInputs() []searchInput {
	var out []searchInput
	for _, kb := range []int{1, 2, 4, 8, 16} {
		for _, fl := range []sramco.Flavor{sramco.LVT, sramco.HVT} {
			out = append(out, searchInput{KB: kb, Flavor: fl, Objective: "edp"})
		}
	}
	return out
}

// referenceInputs is every search the benchmark runs and checks; the fronts
// of hybridInputs are among those of plainInputs.
func referenceInputs() []searchInput {
	return append(append(hybridInputs(), plainInputs()...), frontsOf(plainInputs())...)
}

// searchOutcome is one search's answer in the form the checks need.
type searchOutcome struct {
	stats sramco.SearchStats
	opt   *sramco.Optimum
	front []sramco.DesignPoint
}

func runSearch(ctx context.Context, fw *sramco.Framework, in searchInput) (*searchOutcome, error) {
	if in.Pareto {
		r, err := fw.ParetoSearchContext(ctx, in.options())
		if err != nil {
			return nil, err
		}
		return &searchOutcome{stats: r.Stats, front: r.Front}, nil
	}
	o, err := fw.OptimizeWithContext(ctx, in.options())
	if err != nil {
		return nil, err
	}
	return &searchOutcome{stats: o.Stats, opt: o}, nil
}

// checkSearch compares one answer with its stored reference and, where the
// key overlaps testdata/golden_optima.json, with the golden min-EDP optimum.
func checkSearch(in *inputs, si searchInput, out *searchOutcome, fail *failures) {
	key := si.key()
	if si.Pareto {
		ref, ok := in.searches.Pareto[key]
		if !ok {
			fail.add("%s: no reference", key)
			return
		}
		f := out.front
		if len(f) != ref.FrontSize {
			fail.add("%s: front size %d, reference %d", key, len(f), ref.FrontSize)
			return
		}
		for _, end := range []struct {
			got  sramco.DesignPoint
			want frontPoint
		}{{f[0], ref.First}, {f[len(f)-1], ref.Last}} {
			if end.got.Design != end.want.Design ||
				!relClose(end.got.Result.DArray, end.want.DelayS, objRelTol) ||
				!relClose(end.got.Result.EArray, end.want.EnergyJ, objRelTol) {
				fail.add("%s: front endpoint %+v differs from reference %+v", key, end.got.Design, end.want.Design)
			}
		}
		// The min-EDP design lies on the front, so the front's best EDP is
		// the golden M2 optimum.
		if g, ok := in.golden[goldenKey(si.KB*8192, si.Flavor.String(), "M2")]; ok {
			best := f[0]
			for _, p := range f[1:] {
				if p.Result.EDP < best.Result.EDP {
					best = p
				}
			}
			if !relClose(best.Result.EDP, g.EDP, objRelTol) || best.Design.Geom.NR != g.NR ||
				best.Design.Geom.Npre != g.Npre || best.Design.Geom.Nwr != g.Nwr {
				fail.add("%s: front min-EDP point %+v (EDP %g) differs from golden (EDP %g)", key, best.Design, best.Result.EDP, g.EDP)
			}
		}
		return
	}
	ref, ok := in.searches.Optimize[key]
	if !ok {
		fail.add("%s: no reference", key)
		return
	}
	obj, _ := sramco.ObjectiveByName(si.Objective)
	got := out.opt.Best
	if got.Design != ref.Design || !relClose(obj(got.Result), ref.Objective, objRelTol) {
		fail.add("%s: optimum %+v (objective %g), reference %+v (objective %g)", key, got.Design, obj(got.Result), ref.Design, ref.Objective)
	}
	// The hybrid space contains the pure base-flavor designs, so a min-EDP
	// optimum can never be worse than the golden pure optimum (and a plain
	// search's equals it).
	if si.Objective == "edp" {
		if g, ok := in.golden[goldenKey(si.KB*8192, si.Flavor.String(), "M2")]; ok && got.Result.EDP > g.EDP*(1+objRelTol) {
			fail.add("%s: hybrid EDP %g above the pure golden optimum %g", key, got.Result.EDP, g.EDP)
		}
	}
}

// searchAgg accumulates the core.* per-layer values over searches.
type searchAgg struct {
	n                         int
	points, evaluated, pruned int64
	wall                      time.Duration
	allocs, bytes             uint64
	fronts, frontSum          int
}

func (a *searchAgg) add(out *searchOutcome, wall time.Duration, allocs, bytes uint64) {
	st := out.stats
	a.n++
	a.points += int64(st.Evaluated + st.PrunedBound + st.SkippedRSNM + st.SkippedGeom)
	a.evaluated += int64(st.Evaluated)
	a.pruned += int64(st.PrunedBound)
	a.wall += wall
	a.allocs += allocs
	a.bytes += bytes
	if out.front != nil {
		a.fronts++
		a.frontSum += len(out.front)
	}
}

// put writes the aggregate into layer without replacing values already
// measured on the workload's own traffic.
func (a *searchAgg) put(layer map[string]float64) {
	if a.n == 0 {
		return
	}
	n := float64(a.n)
	putNew(layer, "core.space_points_per_search", float64(a.points)/n)
	putNew(layer, "core.evaluated_per_search", float64(a.evaluated)/n)
	if t := a.evaluated + a.pruned; t > 0 {
		putNew(layer, "core.bound_efficiency", float64(a.pruned)/float64(t))
	}
	if a.points > 0 {
		putNew(layer, "core.ns_per_space_point", float64(a.wall.Nanoseconds())/float64(a.points))
	}
	putNew(layer, "core.allocs_per_search", float64(a.allocs)/n)
	putNew(layer, "core.alloc_mb_per_search", float64(a.bytes)/n/(1<<20))
	if a.fronts > 0 {
		putNew(layer, "core.front_size", float64(a.frontSum)/float64(a.fronts))
	}
}

func putNew(layer map[string]float64, k string, v float64) {
	if _, ok := layer[k]; !ok {
		layer[k] = v
	}
}

// measuredSearch runs one search, timing it and, when agg is non-nil,
// recording its allocations; a benchmark span wraps it when tracing.
func measuredSearch(fw *sramco.Framework, si searchInput, agg *searchAgg) (*searchOutcome, time.Duration, error) {
	ctx := context.Background()
	var sp obs.Span
	if obs.Enabled() {
		ctx = obs.ContextWithTrace(ctx, obs.NewTraceID())
		sp = obs.StartSpanCtx(ctx, "bench.search")
	}
	var m0, m1 runtime.MemStats
	if agg != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	out, err := runSearch(ctx, fw, si)
	d := time.Since(t0)
	sp.End()
	if agg != nil && err == nil {
		runtime.ReadMemStats(&m1)
		agg.add(out, d, m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc)
	}
	return out, d, err
}

// tailQ is the percentile behind tail_ms: the highest with at least ten
// searches beyond it in a run (54 inputs, two or more passes) that also
// falls inside one input's block of samples.
const tailQ = 0.9

// searchWorkload is optimize-hybrid: sequential searches over a fixed
// population, each pass in a seed-drawn order, until the budget is spent
// (whole passes only, so every run weighs the population equally).
type searchWorkload struct {
	cfg runConfig
	pop []searchInput
	fw  *sramco.Framework
	rng *rand.Rand
}

func newOptimizeHybrid(cfg runConfig) workload {
	return &searchWorkload{cfg: cfg, pop: hybridInputs(), rng: rand.New(rand.NewSource(cfg.seed))}
}

func (w *searchWorkload) setup() error {
	fw, err := sramco.NewFramework(sramco.TechPaper)
	w.fw = fw
	return err
}

func (w *searchWorkload) close() { w.fw = nil }

func (w *searchWorkload) measure(budget time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	times := map[string][]time.Duration{}
	var agg *searchAgg
	if tr != nil {
		agg = &searchAgg{}
	}
	var fail failures
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		resetPeakRSS()
		for _, i := range w.rng.Perm(len(w.pop)) {
			si := w.pop[i]
			ph.attempted++
			out, d, err := measuredSearch(w.fw, si, agg)
			if err != nil {
				fail.add("%s: %v", si.key(), err)
				continue
			}
			before := fail.n
			checkSearch(w.cfg.in, si, out, &fail)
			if fail.n > before {
				continue
			}
			times[si.key()] = append(times[si.key()], d)
		}
		ph.passPeaks = append(ph.passPeaks, peakRSSMB())
	}
	ph.failed = fail.n
	for _, l := range fail.logs {
		fmt.Fprintf(w.cfg.log, "perfbench: wrong answer: %s\n", l)
	}
	ph.opsPerSec, ph.p50, ph.tail, ph.summary = perKeySummary(times)
	if agg != nil {
		agg.put(ph.layer)
	}
	return ph, nil
}

func (w *searchWorkload) probe(layer map[string]float64) error {
	// optimize-hybrid builds no fronts: take core.front_size from the
	// fronts of its capacities.
	if _, ok := layer["core.front_size"]; !ok {
		if err := probeSearches(w.fw, w.cfg.in, frontsOf(w.pop), layer); err != nil {
			return err
		}
	}
	return commonProbes(w.fw, w.cfg, unitsFromSearches(w.fw, w.pop, w.cfg.seed), layer)
}

// frontsOf returns one M2 Pareto search per (capacity, flavor) of pop.
func frontsOf(pop []searchInput) []searchInput {
	seen := map[searchInput]bool{}
	var out []searchInput
	for _, si := range pop {
		f := searchInput{KB: si.KB, Flavor: si.Flavor, Pareto: true}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}
