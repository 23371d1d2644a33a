package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sramco"
	"sramco/internal/mc"
	"sramco/internal/obs"
)

// yieldRelCI is the early-stop target of the converging streams: 95% CI
// half-width on μ−3σ within 10% of its value.
const yieldRelCI = 0.1

// yieldSeeds are the fixed Monte Carlo seeds; round r uses
// yieldSeeds[r % len]. Fixing them keeps the work per run identical across
// benchmark seeds, which only order the streams of each round.
var yieldSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

// yieldRound returns the three streams of round r: HSNM+RSNM to the CI
// target under Sobol and under LHS, and a fixed eight-sample write-margin
// stream.
func yieldRound(r int) []mc.StreamConfig {
	seed := yieldSeeds[r%len(yieldSeeds)]
	return []mc.StreamConfig{
		{Config: mc.Config{Flavor: sramco.HVT, N: 4096, Seed: seed, Metrics: mc.HSNM | mc.RSNM, Sampler: mc.SamplerSobol}, RelCI: yieldRelCI},
		{Config: mc.Config{Flavor: sramco.HVT, N: 4096, Seed: seed, Metrics: mc.HSNM | mc.RSNM, Sampler: mc.SamplerLHS}, RelCI: yieldRelCI},
		{Config: mc.Config{Flavor: sramco.HVT, N: 8, Seed: seed, Metrics: mc.WM, Sampler: mc.SamplerSobol}},
	}
}

func streamKey(sc mc.StreamConfig) string {
	return fmt.Sprintf("metrics=%d|sampler=%s|seed=%d|n=%d|rel_ci=%g", sc.Metrics, sc.Sampler, sc.Seed, sc.N, sc.RelCI)
}

// streamMetrics returns the measured μ−3σ statistics of a stream by name.
func streamMetrics(r *mc.StreamResult) map[string]*mc.MetricStat {
	m := map[string]*mc.MetricStat{}
	for name, st := range map[string]*mc.MetricStat{"hsnm": r.Final.HSNM, "rsnm": r.Final.RSNM, "wm": r.Final.WM} {
		if st != nil {
			m[name] = st
		}
	}
	return m
}

// checkStream checks a stream's μ−3σ estimates fall inside the reference
// CIs and that a converging stream converged.
func checkStream(in *inputs, sc mc.StreamConfig, r *mc.StreamResult, fail *failures) {
	key := streamKey(sc)
	ref, ok := in.yield.Streams[key]
	if !ok {
		fail.add("%s: no reference", key)
		return
	}
	if sc.RelCI > 0 && !r.Final.Converged {
		fail.add("%s: did not converge in %d samples", key, r.Stats.Samples)
	}
	got := streamMetrics(r)
	if len(got) != len(ref.Mu3) {
		fail.add("%s: %d margins measured, reference has %d", key, len(got), len(ref.Mu3))
		return
	}
	for name, st := range got {
		if d := math.Abs(st.Mu3 - ref.Mu3[name]); !(d <= ref.CIHalf[name]) {
			fail.add("%s: %s μ−3σ %g outside the reference CI %g ± %g", key, name, st.Mu3, ref.Mu3[name], ref.CIHalf[name])
		}
	}
}

// mcAgg accumulates the mc.* per-layer values over streams.
type mcAgg struct {
	ciStreams, ciSamples int
	ess                  float64
	samples              int
	wmSamples            int
	writefail0           int64
}

func (a *mcAgg) add(sc mc.StreamConfig, r *mc.StreamResult) {
	a.samples += r.Stats.Samples
	if sc.RelCI > 0 {
		a.ciStreams++
		a.ciSamples += r.Stats.Samples
		a.ess += r.Final.ESS
	}
	if sc.Metrics&mc.WM != 0 {
		a.wmSamples += r.Stats.Samples
	}
}

// start snapshots the write-failure counter so put reports only this
// aggregate's failures.
func (a *mcAgg) start() {
	a.writefail0 = obs.Default().CounterValue("mc.samples.writefail")
}

func (a *mcAgg) put(tr *tracer, layer map[string]float64) {
	if a.ciStreams > 0 {
		putNew(layer, "mc.samples_to_ci", float64(a.ciSamples)/float64(a.ciStreams))
		putNew(layer, "mc.ess_frac", a.ess/float64(a.ciSamples))
	}
	if a.wmSamples > 0 {
		putNew(layer, "mc.writefail_frac", float64(obs.Default().CounterValue("mc.samples.writefail")-a.writefail0)/float64(a.wmSamples))
	}
	if tr != nil && a.samples > 0 {
		putNew(layer, "circuit.self_ms", ms(tr.sumPrefix("circuit."))/float64(a.samples))
	}
}

// roundSeconds is about how long one round takes on a 2-vCPU machine.
const roundSeconds = 5

// roundsFor returns how many rounds fill budget. The count depends on the
// budget only, not on how fast the rounds run, so every run measures the
// same streams and a faster or slower machine cannot change which streams
// the percentiles are taken over.
func roundsFor(budget time.Duration) int {
	return max(1, int(budget/(roundSeconds*time.Second)))
}

// yieldConverge is the yield-converge workload.
type yieldConverge struct {
	cfg   runConfig
	fw    *sramco.Framework
	rng   *rand.Rand
	round int
}

func newYieldConverge(cfg runConfig) workload {
	return &yieldConverge{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
}

// setup builds the framework a yield service starts from; the streams
// themselves characterize cells per sample and need nothing more.
func (w *yieldConverge) setup() error {
	fw, err := sramco.NewFramework(sramco.TechPaper)
	w.fw = fw
	return err
}

func (w *yieldConverge) close() { w.fw = nil }

func (w *yieldConverge) measure(budget time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{layer: map[string]float64{}}
	var lat []time.Duration
	var samples int
	var busy time.Duration
	var fail failures
	var agg mcAgg
	agg.start()
	for n := roundsFor(budget); n > 0; n-- {
		streams := yieldRound(w.round)
		w.round++
		resetPeakRSS()
		for _, i := range w.rng.Perm(len(streams)) {
			sc := streams[i]
			ctx := context.Background()
			var sp obs.Span
			if tr != nil {
				ctx = obs.ContextWithTrace(ctx, obs.NewTraceID())
				sp = obs.StartSpanCtx(ctx, "bench.yield")
			}
			ph.attempted++
			t0 := time.Now()
			r, err := sramco.MonteCarloYieldStream(ctx, sc, nil)
			d := time.Since(t0)
			sp.End()
			if err != nil {
				fail.add("%s: %v", streamKey(sc), err)
				continue
			}
			before := fail.n
			checkStream(w.cfg.in, sc, r, &fail)
			if fail.n > before {
				continue
			}
			agg.add(sc, r)
			samples += r.Stats.Samples
			busy += d
			if sc.RelCI > 0 {
				lat = append(lat, d)
			}
		}
		ph.passPeaks = append(ph.passPeaks, peakRSSMB())
	}
	ph.failed = fail.n
	for _, l := range fail.logs {
		fmt.Fprintf(w.cfg.log, "perfbench: wrong answer: %s\n", l)
	}
	// Few converging streams fit in a run, too few for a percentile with
	// ten beyond it: the tail is the slowest stream's time to the CI.
	if busy > 0 {
		ph.opsPerSec = float64(samples) / busy.Seconds()
	}
	ph.p50, ph.tail = medianDur(lat), quantile(lat, 1)
	ph.summary = fmt.Sprintf("%d samples in %d streams; p50_ms and tail_ms are the median and maximum time to the CI of %d converging streams", samples, ph.attempted, len(lat))
	if tr != nil {
		agg.put(tr, ph.layer)
	}
	return ph, nil
}

// probe draws its array units from the plain organizations of 1–16 KB
// arrays and its searches from the paper's default optimize set, since the
// workload itself searches nothing.
func (w *yieldConverge) probe(layer map[string]float64) error {
	pop := plainInputs()
	if err := probeSearches(w.fw, w.cfg.in, append(pop, frontsOf(pop)...), layer); err != nil {
		return err
	}
	return commonProbes(w.fw, w.cfg, unitsFromSearches(w.fw, pop, w.cfg.seed), layer)
}

// probeSearches runs each input once, traced, checks its answer, and
// records the core.* values the workload's own traffic did not.
func probeSearches(fw *sramco.Framework, in *inputs, pop []searchInput, layer map[string]float64) error {
	tr := newTracer()
	restore := tr.install()
	defer restore()
	var agg searchAgg
	var fail failures
	for _, si := range pop {
		out, _, err := measuredSearch(fw, si, &agg)
		if err != nil {
			return err
		}
		checkSearch(in, si, out, &fail)
	}
	if fail.n > 0 {
		return fmt.Errorf("%d wrong search answers, first: %s", fail.n, fail.logs[0])
	}
	agg.put(layer)
	tr.putChunkShare(layer)
	return nil
}
