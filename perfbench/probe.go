package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sramco"
	"sramco/internal/array"
	"sramco/internal/cell"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/mc"
	"sramco/internal/serve"
	"sramco/internal/wire"
)

// The outside-in layer probes time the public calls of each layer directly,
// on inputs drawn from the workload, with fixed repetition counts so every
// run does the same amount of probe work.

// sinkF and sinkEv keep probe results live so the compiler cannot drop
// the calls.
var (
	sinkF  float64
	sinkEv *array.Evaluator
)

// unit is one (organization × rails × group assignment) work unit of the
// search space: what core prepares once and then sweeps over (N_pre, N_wr).
type unit struct {
	flavor          sramco.Flavor
	geom            wire.Geometry
	vddc, vssc, vwl float64
	hyb             array.Hybrid // Groups ≥ 2; ignored by the plain Prepare
}

// drawUnit draws one valid unit from the search space of si; a search
// without row groups gets a hybrid variant with 2 or 4 groups.
func drawUnit(fw *sramco.Framework, rng *rand.Rand, si searchInput) (unit, bool) {
	fl, groups := si.Flavor, si.Groups
	bits := si.KB * 8192
	var orgs []int
	for nr := 8; nr <= 1024; nr *= 2 {
		if nc := bits / nr; nc >= 64 && nc <= 1024 {
			orgs = append(orgs, nr)
		}
	}
	if len(orgs) == 0 {
		return unit{}, false
	}
	nr := orgs[rng.Intn(len(orgs))]
	g := wire.Geometry{NR: nr, NC: bits / nr, W: 64, Npre: 1, Nwr: 1, WLSegs: 1}
	if si.Mux > 1 {
		g.Mux = []int{0, 2, 4}[rng.Intn(3)]
		if g.Mux > si.Mux {
			g.Mux = 0
		}
	}
	if groups == 0 {
		groups = []int{2, 4}[rng.Intn(2)]
	}
	alt, err := fw.Core().HybridAltTerms(fl)
	if err != nil {
		return unit{}, false
	}
	vddc, vwl, err := fw.Rails(fl, sramco.M2)
	if err != nil {
		return unit{}, false
	}
	u := unit{
		flavor: fl, geom: g, vddc: vddc, vwl: vwl,
		vssc: -0.01 * float64(rng.Intn(25)),
		hyb:  array.Hybrid{Groups: groups, Mask: uint32(rng.Intn(1 << groups)), Alt: alt},
	}
	ev, err := u.evaluator(fw)
	if err != nil || ev.Prepare(u.geom, u.vddc, u.vssc, u.vwl) != nil ||
		ev.PrepareHybrid(u.geom, u.vddc, u.vssc, u.vwl, u.hyb) != nil {
		return unit{}, false
	}
	return u, true
}

func (u unit) evaluator(fw *sramco.Framework) (*array.Evaluator, error) {
	tech, err := fw.Core().ArrayTech(u.flavor)
	if err != nil {
		return nil, err
	}
	return array.NewEvaluator(tech, sramco.Activity{Alpha: 0.5, Beta: 0.5})
}

const probeUnits = 128

// unitsFromSearches draws probe units from a search population.
func unitsFromSearches(fw *sramco.Framework, pop []searchInput, seed int64) []unit {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var us []unit
	for tries := 0; len(us) < probeUnits && tries < 50*probeUnits; tries++ {
		if u, ok := drawUnit(fw, rng, pop[rng.Intn(len(pop))]); ok {
			us = append(us, u)
		}
	}
	return us
}

// commonProbes runs every layer probe. Values the workload already measured
// on its own traffic are kept; the probes fill in the rest.
func commonProbes(fw *sramco.Framework, cfg runConfig, units []unit, layer map[string]float64) error {
	probeDevice(layer)
	if err := probeCell(cfg.seed, layer); err != nil {
		return fmt.Errorf("cell: %w", err)
	}
	if err := probeFramework(layer); err != nil {
		return err
	}
	if err := probeArray(fw, units, layer); err != nil {
		return fmt.Errorf("array: %w", err)
	}
	if err := probeServe(fw, cfg, layer); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if _, ok := layer["mc.samples_to_ci"]; !ok {
		if err := probeMC(cfg.seed, layer); err != nil {
			return fmt.Errorf("mc: %w", err)
		}
	}
	return nil
}

// probeDevice times device.Model.Ids over a fixed bias grid on all four
// device types of the 7 nm library.
func probeDevice(layer map[string]float64) {
	lib := device.Default7nm()
	models := []*device.Model{lib.NLVT, lib.NHVT, lib.PLVT, lib.PHVT}
	const reps = 100
	var acc float64
	calls := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range models {
			for i := 0; i <= 9; i++ {
				for j := 0; j <= 9; j++ {
					acc += m.Ids(0.05*float64(i), 0.05*float64(j))
					calls++
				}
			}
		}
	}
	layer["device.ids_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	sinkF = acc
}

// randomVariation draws one per-transistor ΔVt vector at the default σVt.
func randomVariation(rng *rand.Rand) cell.Variation {
	var v cell.Variation
	for i := range v {
		v[i] = rng.NormFloat64() * mc.DefaultSigmaVt
	}
	return v
}

// probeCell times the three Monte Carlo cell metrics on a reused
// cell.Scratch, on seed-drawn ΔVt vectors.
func probeCell(seed int64, layer map[string]float64) error {
	rng := rand.New(rand.NewSource(seed ^ 0xce11))
	s, err := cell.NewScratch(cell.New(sramco.HVT))
	if err != nil {
		return err
	}
	timeEach := func(n int, f func(cell.Variation) (float64, error)) (time.Duration, error) {
		vs := make([]cell.Variation, n)
		for i := range vs {
			vs[i] = randomVariation(rng)
		}
		t0 := time.Now()
		for _, v := range vs {
			m, err := f(v)
			if err != nil {
				return 0, err
			}
			sinkF += m
		}
		return time.Since(t0) / time.Duration(n), nil
	}
	vdd := device.Vdd
	hold, err := timeEach(24, func(v cell.Variation) (float64, error) { return s.HoldSNM(v, vdd) })
	if err != nil {
		return err
	}
	read, err := timeEach(24, func(v cell.Variation) (float64, error) { return s.ReadSNM(v, cell.NominalRead(vdd)) })
	if err != nil {
		return err
	}
	write, err := timeEach(3, func(v cell.Variation) (float64, error) { return s.WriteMargin(v, cell.NominalWrite(vdd)) })
	if err != nil {
		return err
	}
	layer["cell.hold_snm_us"] = float64(hold) / 1e3
	layer["cell.read_snm_us"] = float64(read) / 1e3
	layer["cell.write_margin_ms"] = float64(write) / 1e6
	return nil
}

// probeFramework times core.NewFramework alone (median of three).
func probeFramework(layer map[string]float64) error {
	var ts []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := core.NewFramework(core.TechPaper, core.FrameworkOpts{}); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	layer["core.framework_s"] = median(ts)
	return nil
}

// probeArray times the array.Evaluator calls a search makes per unit and
// per point, cycling through distinct units so Prepare's memo never hits.
func probeArray(fw *sramco.Framework, units []unit, layer map[string]float64) error {
	if len(units) == 0 {
		return fmt.Errorf("no valid units drawn")
	}
	evs := make([]*array.Evaluator, len(units))
	for i, u := range units {
		ev, err := u.evaluator(fw)
		if err != nil {
			return err
		}
		evs[i] = ev
	}
	const rounds = 8
	n := rounds * len(units)

	base := evs[0]
	t0 := time.Now()
	for r := 0; r < n; r++ {
		sinkEv = base.Clone()
	}
	layer["array.clone_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	ev := base.Clone()
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, u := range units {
			if err := ev.Prepare(u.geom, u.vddc, u.vssc, u.vwl); err != nil {
				return err
			}
		}
	}
	layer["array.prepare_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for i, u := range units {
			if err := evs[i].PrepareHybrid(u.geom, u.vddc, u.vssc, u.vwl, u.hyb); err != nil {
				return err
			}
		}
	}
	layer["array.prepare_hybrid_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	// Bound and sweep run on the prepared hybrid units, the last state of
	// evs; the full §5 rectangle is N_pre 1–50 × N_wr 1–20.
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, e := range evs {
			b, err := e.BoundRect(1, 50, 1, 20)
			if err != nil {
				return err
			}
			sinkF += b.EDP
		}
	}
	layer["array.bound_rect_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	var blk array.SweepBlock
	points := 0
	t0 = time.Now()
	for _, e := range evs {
		for npre := 1; npre <= 50; npre++ {
			if err := e.EvalSweep(npre, 1, 20, &blk); err != nil {
				return err
			}
			points += 20
		}
	}
	layer["array.eval_sweep_ns_per_point"] = float64(time.Since(t0).Nanoseconds()) / float64(points)
	return nil
}

// probeCatalog times a full DefaultCatalogGrid build (median of three) and
// catalog.Lookup over every key of the result.
func probeCatalog(fw *sramco.Framework, layer map[string]float64) error {
	var ts []float64
	var keys []string
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		cat, err := serve.New(fw, serve.Config{}).BuildCatalog(context.Background(), serve.DefaultCatalogGrid())
		if err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
		keys = cat.Keys()
		if i == 2 {
			const reps = 200
			t0 = time.Now()
			found := 0
			for r := 0; r < reps; r++ {
				for _, k := range keys {
					if _, ok := cat.Lookup(k); ok {
						found++
					}
				}
			}
			if found != reps*len(keys) {
				return fmt.Errorf("catalog lookup missed %d of its own keys", reps*len(keys)-found)
			}
			layer["catalog.lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(found)
		}
	}
	layer["catalog.build_s"] = median(ts)
	return nil
}

// probeMC runs one small converging yield stream and a two-sample write
// margin stream, traced, for the mc.* and circuit.self_ms values of
// workloads that run no Monte Carlo of their own.
func probeMC(seed int64, layer map[string]float64) error {
	tr := newTracer()
	restore := tr.install()
	defer restore()
	var agg mcAgg
	agg.start()
	for _, sc := range []mc.StreamConfig{
		{Config: mc.Config{Flavor: sramco.HVT, N: 512, Seed: seed, Metrics: mc.HSNM | mc.RSNM, Sampler: mc.SamplerSobol}, RelCI: 0.15},
		{Config: mc.Config{Flavor: sramco.HVT, N: 2, Seed: seed, Metrics: mc.WM, Sampler: mc.SamplerSobol}},
	} {
		r, err := sramco.MonteCarloYieldStream(context.Background(), sc, nil)
		if err != nil {
			return err
		}
		agg.add(sc, r)
	}
	agg.put(tr, layer)
	return nil
}
