package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/obs"
)

// pruningFramework returns a copy of the paper framework whose HVT cell
// fails read stability below cutoff — TechPaper's RSNMAt is the constant δ
// (the starred rails are chosen to meet it), so pruning tests need an
// explicit cliff.
func pruningFramework(t *testing.T, cutoff float64) *Framework {
	t.Helper()
	f := cloneFramework(t)
	delta := f.Delta
	f.Cells[device.HVT].RSNMAt = func(vssc float64) float64 {
		if vssc < cutoff {
			return 0
		}
		return delta
	}
	return f
}

// TestSkippedRSNMReconcilesWithValidatedSpace covers the up-front pruning
// accounting bug: pruned VSSC levels used to be charged NpreMax·NwrMax
// points for every organization, including (npre, nwr) combinations
// Geom.Validate rejects on the feasible levels — so Evaluated + SkippedRSNM
// could not reconcile with the candidate space. The fix counts pruned
// levels against the validated space only, giving the exact identity
//
//	Evaluated + SkippedRSNM == levels × validCombosPerLevel
//
// The space is picked so geometry skips actually occur: capacity 64 bits
// with W = 6 makes the wide organizations fail the power-of-two access
// width check.
func TestSkippedRSNMReconcilesWithValidatedSpace(t *testing.T) {
	f := pruningFramework(t, -0.015) // prunes -0.02 and -0.03
	opts := Options{
		CapacityBits: 64,
		Flavor:       device.HVT,
		Method:       M2,
		W:            6,
		Space:        SearchSpace{VSSCMin: -0.03, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	opt, err := f.Optimize(opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	st := opt.Stats

	levels := len(vsscCandidates(opts.Method, opts.Space))
	if levels != 4 {
		t.Fatalf("levels = %d, want 4", levels)
	}
	if st.PrunedVSSC != 2 {
		t.Fatalf("PrunedVSSC = %d, want 2", st.PrunedVSSC)
	}
	// Organizations: nr ∈ {2..64} with nc = 64/nr; width = min(6, nc) is a
	// valid power of two only for nc ∈ {4, 2, 1} → 3 valid organizations ×
	// NpreMax×NwrMax fin combinations each.
	normOpts := opts
	if err := normOpts.normalize(); err != nil {
		t.Fatal(err)
	}
	valid := validCombosPerLevel(&normOpts, rowCandidates(normOpts.CapacityBits, normOpts.Space))
	if valid != 12 {
		t.Fatalf("validCombosPerLevel = %d, want 12", valid)
	}
	if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, levels*valid; got != want {
		t.Errorf("Evaluated (%d) + SkippedRSNM (%d) + PrunedBound (%d) = %d, want levels×valid = %d",
			st.Evaluated, st.SkippedRSNM, st.PrunedBound, got, want)
	}
	if want := st.PrunedVSSC * valid; st.SkippedRSNM != want {
		t.Errorf("SkippedRSNM = %d, want PrunedVSSC×valid = %d", st.SkippedRSNM, want)
	}
	// Feasible levels either evaluate a validated combination or prune it by
	// bound (rails failures are evaluated points in the unpruned sweep and
	// bound-pruned in the branch-and-bound one), so Evaluated + PrunedBound
	// is exactly (levels−pruned)×valid.
	if want := (levels - st.PrunedVSSC) * valid; st.Evaluated+st.PrunedBound != want {
		t.Errorf("Evaluated (%d) + PrunedBound (%d) = %d, want %d",
			st.Evaluated, st.PrunedBound, st.Evaluated+st.PrunedBound, want)
	}
	// Geometry skips: the 3 invalid organizations × NpreMax×NwrMax, charged
	// only on the feasible (actually searched) levels.
	if want := (levels - st.PrunedVSSC) * 3 * 4; st.SkippedGeom != want {
		t.Errorf("SkippedGeom = %d, want %d", st.SkippedGeom, want)
	}
	if opt.Skipped != st.SkippedTotal() {
		t.Errorf("Optimum.Skipped (%d) != Stats.SkippedTotal (%d)", opt.Skipped, st.SkippedTotal())
	}
}

// TestVSSCCandidatesAreExactLiterals covers the float-drift bugfix: the
// accumulating v -= step loop smeared rounding error into the deeper levels
// (-0.07000000000000001 after seven 0.01 steps). Index-based generation
// keeps every level bit-equal to the decimal literal it prints as.
func TestVSSCCandidatesAreExactLiterals(t *testing.T) {
	got := vsscCandidates(M2, DefaultSpace())
	if len(got) != 25 {
		t.Fatalf("%d levels, want 25", len(got))
	}
	want := []float64{0, -0.01, -0.02, -0.03, -0.04, -0.05, -0.06, -0.07, -0.08, -0.09,
		-0.10, -0.11, -0.12, -0.13, -0.14, -0.15, -0.16, -0.17, -0.18, -0.19,
		-0.20, -0.21, -0.22, -0.23, -0.24}
	for i, v := range got {
		if v != want[i] { // == on float64: literal-exact, no tolerance
			t.Errorf("level %d = %v (bits %x), want the literal %v", i, v, math.Float64bits(v), want[i])
		}
		if s := strconv.FormatFloat(v, 'g', -1, 64); strings.Contains(s, "000000000") {
			t.Errorf("level %d prints with drift: %s", i, s)
		}
	}
	if math.Signbit(got[0]) {
		t.Error("level 0 is -0, want +0")
	}

	// M1 collapses to the lone zero level regardless of the range.
	if m1 := vsscCandidates(M1, DefaultSpace()); len(m1) != 1 || m1[0] != 0 {
		t.Errorf("M1 candidates = %v, want [0]", m1)
	}
	// Degenerate spaces fall back to the zero level instead of looping.
	if z := vsscCandidates(M2, SearchSpace{VSSCMin: 0, VSSCStep: 0.01}); len(z) != 1 || z[0] != 0 {
		t.Errorf("VSSCMin=0 candidates = %v, want [0]", z)
	}
	if z := vsscCandidates(M2, SearchSpace{VSSCMin: -0.1, VSSCStep: 0}); len(z) != 1 || z[0] != 0 {
		t.Errorf("zero-step candidates = %v, want [0]", z)
	}
	// A range that is not an exact multiple of the step keeps the historical
	// 1e-9 slack: -0.025 admits -0.02 but not -0.03.
	if got := vsscCandidates(M2, SearchSpace{VSSCMin: -0.025, VSSCStep: 0.01}); len(got) != 3 || got[2] != -0.02 {
		t.Errorf("non-multiple range candidates = %v, want [0 -0.01 -0.02]", got)
	}
}

// TestParetoStatsAndTraceReconcile covers the searcher-parity satellite for
// the Pareto sweep: it must report the same SearchStats scheme as Optimize
// and emit the core.search instrumentation (run span core.search.pareto,
// one core.search.chunk span per shard, evaluation counts that reconcile
// exactly with the stats and the live counter).
func TestParetoStatsAndTraceReconcile(t *testing.T) {
	f := paperFramework(t)
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	reg := obs.Default()
	before := reg.CounterValue("core.search.evaluated")

	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.03, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3},
	}
	res, err := f.ParetoSearch(opts)
	if err != nil {
		t.Fatalf("ParetoSearch: %v", err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty frontier")
	}
	st := res.Stats

	normOpts := opts
	if err := normOpts.normalize(); err != nil {
		t.Fatal(err)
	}
	rows := rowCandidates(normOpts.CapacityBits, normOpts.Space)
	levels := len(vsscCandidates(normOpts.Method, normOpts.Space))
	if want := len(rows) * levels; st.Chunks != want {
		t.Errorf("Chunks = %d, want rows×levels = %d", st.Chunks, want)
	}
	// Paper-mode RSNMAt is the constant δ: nothing prunes, every validated
	// combination is evaluated.
	if st.PrunedVSSC != 0 || st.SkippedRSNM != 0 {
		t.Errorf("unexpected pruning: %+v", st)
	}
	if want := levels * validCombosPerLevel(&normOpts, rows); st.Evaluated+st.PrunedBound != want {
		t.Errorf("Evaluated (%d) + PrunedBound (%d) = %d, want %d",
			st.Evaluated, st.PrunedBound, st.Evaluated+st.PrunedBound, want)
	}
	if st.Workers < 1 || st.Wall <= 0 {
		t.Errorf("missing worker/wall accounting: %+v", st)
	}

	var chunkSpans int
	var chunkSum, runTotal, prunedSum, runPruned int64
	runSpans := 0
	for _, ev := range col.Events() {
		switch ev.Name {
		case "core.search.chunk":
			chunkSpans++
			chunkSum += attrInt(t, ev, "evaluated")
			prunedSum += attrInt(t, ev, "pruned_bound")
		case "core.search.pareto":
			runSpans++
			runTotal = attrInt(t, ev, "evaluated")
			runPruned = attrInt(t, ev, "pruned_bound")
		}
	}
	if runSpans != 1 {
		t.Fatalf("%d core.search.pareto run spans, want 1", runSpans)
	}
	if chunkSpans != st.Chunks {
		t.Errorf("%d chunk spans, want %d (one per shard)", chunkSpans, st.Chunks)
	}
	if chunkSum != int64(st.Evaluated) || runTotal != int64(st.Evaluated) {
		t.Errorf("span evaluation counts (%d chunk / %d run) disagree with Stats.Evaluated %d",
			chunkSum, runTotal, st.Evaluated)
	}
	if prunedSum != int64(st.PrunedBound) || runPruned != int64(st.PrunedBound) {
		t.Errorf("span prune counts (%d chunk / %d run) disagree with Stats.PrunedBound %d",
			prunedSum, runPruned, st.PrunedBound)
	}
	if got := reg.CounterValue("core.search.evaluated") - before; got != int64(st.Evaluated) {
		t.Errorf("counter advanced by %d, Stats.Evaluated = %d", got, st.Evaluated)
	}
}

// TestParetoHonorsSearchWLSegs covers the parity gap where the Pareto sweep
// silently ignored Options.SearchWLSegs: with segmentation enabled it must
// enumerate the divided-wordline candidates — visible in the stats as the
// wider space and in the front as segmented members — the bounded sweep must
// return the same front, and every front member must equal the point
// reference array.Evaluate of its design. Segmentation pays off under the
// all-columns energy accounting, where it cuts the per-access bitline
// disturb, so the front is computed under that accounting.
func TestParetoHonorsSearchWLSegs(t *testing.T) {
	f := cloneFramework(t)
	f.Accounting = array.AllColumns
	opts := Options{
		CapacityBits:  8192,
		Flavor:        device.HVT,
		Method:        M1,
		Space:         SearchSpace{VSSCMin: -0.01, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 3, NwrMax: 2},
		DisableBounds: true,
	}
	flat, err := f.ParetoSearch(opts)
	if err != nil {
		t.Fatalf("flat ParetoSearch: %v", err)
	}
	segOpts := opts
	segOpts.SearchWLSegs = true
	full, err := f.ParetoSearch(segOpts)
	if err != nil {
		t.Fatalf("segmented ParetoSearch: %v", err)
	}
	// One VSSC level (M1); with W = 64 the organizations nc = 1024, 512, 256
	// and 128 admit 3 + 3 + 2 + 1 segmented variants, each NpreMax×NwrMax
	// points wide.
	if got, want := full.Stats.Evaluated-flat.Stats.Evaluated, 9*3*2; got != want {
		t.Errorf("SearchWLSegs widened the sweep by %d points, want %d", got, want)
	}
	segmented := 0
	for _, p := range flat.Front {
		if p.Design.Geom.Segments() != 1 {
			t.Errorf("flat front holds a %d-segment design", p.Design.Geom.Segments())
		}
	}
	for _, p := range full.Front {
		if p.Design.Geom.Segments() > 1 {
			segmented++
		}
	}
	if segmented == 0 {
		t.Error("no divided-wordline design on the segmented front")
	}

	segOpts.DisableBounds = false
	pruned, err := f.ParetoSearch(segOpts)
	if err != nil {
		t.Fatalf("bounded segmented ParetoSearch: %v", err)
	}
	if !reflect.DeepEqual(pruned.Front, full.Front) {
		t.Errorf("bounded front (%d points) diverges from full enumeration (%d points)", len(pruned.Front), len(full.Front))
	}
	if got := pruned.Stats.Evaluated + pruned.Stats.PrunedBound; got != full.Stats.Evaluated {
		t.Errorf("bounded space %d does not reconcile with full enumeration %d", got, full.Stats.Evaluated)
	}

	tech, err := f.ArrayTech(device.HVT)
	if err != nil {
		t.Fatal(err)
	}
	act := array.Activity{Alpha: DefaultAlpha, Beta: DefaultBeta}
	for i, p := range full.Front {
		ref, err := array.Evaluate(tech, p.Design, act)
		if err != nil {
			t.Fatalf("front point %d: %v", i, err)
		}
		if !reflect.DeepEqual(ref, p.Result) {
			t.Fatalf("front point %d diverges from array.Evaluate:\nsearch %+v\nref    %+v", i, p.Result, ref)
		}
	}
}
