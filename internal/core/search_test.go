package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sramco/internal/array"
	"sramco/internal/device"
	"sramco/internal/wire"
)

func wireGeom(nr, nc, segs, npre, nwr int) wire.Geometry {
	return wire.Geometry{NR: nr, NC: nc, W: 64, Npre: npre, Nwr: nwr, WLSegs: segs}
}

// normalizeOptimum zeroes the environmental stats fields (wall time, worker
// count) so the rest of the Optimum can be compared bit-for-bit.
func normalizeOptimum(o *Optimum) Optimum {
	n := *o
	n.Stats.Wall = 0
	n.Stats.Workers = 0
	return n
}

// TestOptimizeDeterministicAcrossGOMAXPROCS is the acceptance gate for the
// deterministic reduction: the 4 KB HVT/M2 search must return a
// bit-identical Optimum — design, result and counts — for any worker count,
// and across repeated runs.
func TestOptimizeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	f := paperFramework(t)
	opts := Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2}
	var ref Optimum
	for i, procs := range []int{1, 2, 8, 8} {
		prev := runtime.GOMAXPROCS(procs)
		opt, err := f.Optimize(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got := normalizeOptimum(opt)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("GOMAXPROCS=%d run %d: Optimum differs from GOMAXPROCS=1 baseline:\n  base %+v\n  got  %+v",
				procs, i, ref.Best.Design, got.Best.Design)
		}
	}
}

// TestOptimizeTieBreakOnObjectiveTies forces every feasible point to tie and
// checks the winner is schedule-independent.
func TestOptimizeTieBreakOnObjectiveTies(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.04, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3},
		Objective:    func(*array.Result) float64 { return 1 },
	}
	var ref Optimum
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		opt, err := f.Optimize(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		got := normalizeOptimum(opt)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("all-ties search is schedule-dependent: %+v vs %+v", ref.Best.Design, got.Best.Design)
		}
	}
	// With every objective equal, no feasible design may precede the winner
	// in the canonical order within its own (row, VSSC) block.
	d := ref.Best.Design
	if d.Geom.Npre != 1 || d.Geom.Nwr != 1 {
		// Npre/Nwr do not affect feasibility gates ahead of evaluation, so
		// the canonical minimum of a tied block always has 1/1 fins.
		t.Errorf("tie-break winner has N_pre=%d N_wr=%d, want the canonical 1/1", d.Geom.Npre, d.Geom.Nwr)
	}
}

func TestBetterPointTotalOrder(t *testing.T) {
	mk := func(nr, nc, segs, npre, nwr int, vssc float64) *DesignPoint {
		return &DesignPoint{Design: array.Design{
			Geom: wireGeom(nr, nc, segs, npre, nwr),
			VSSC: vssc,
		}}
	}
	a := mk(32, 1024, 1, 1, 1, 0)
	b := mk(64, 512, 1, 1, 1, 0)
	if !betterPoint(a, 1, b, 2) {
		t.Error("lower objective must win regardless of design order")
	}
	if betterPoint(b, 2, a, 1) {
		t.Error("higher objective must lose")
	}
	// Ties: fewer rows first.
	if !betterPoint(a, 1, b, 1) || betterPoint(b, 1, a, 1) {
		t.Error("tie must prefer fewer rows")
	}
	// Ties at equal rows: weaker (less negative) VSSC first.
	c := mk(32, 1024, 1, 1, 1, -0.05)
	if !betterPoint(a, 1, c, 1) || betterPoint(c, 1, a, 1) {
		t.Error("tie must prefer the weaker VSSC assist")
	}
	// Then fewer segments, fewer Npre, fewer Nwr.
	for _, pair := range [][2]*DesignPoint{
		{mk(32, 1024, 1, 5, 5, 0), mk(32, 1024, 2, 1, 1, 0)},
		{mk(32, 1024, 1, 1, 9, 0), mk(32, 1024, 1, 2, 1, 0)},
		{mk(32, 1024, 1, 1, 1, 0), mk(32, 1024, 1, 1, 2, 0)},
	} {
		if !betterPoint(pair[0], 1, pair[1], 1) || betterPoint(pair[1], 1, pair[0], 1) {
			t.Errorf("tie order violated for %+v vs %+v", pair[0].Design.Geom, pair[1].Design.Geom)
		}
		if !designLess(pair[0].Design, pair[1].Design) || designLess(pair[1].Design, pair[0].Design) {
			t.Errorf("designLess not a strict order for %+v vs %+v", pair[0].Design.Geom, pair[1].Design.Geom)
		}
	}
	// A nil incumbent always loses.
	if !betterPoint(a, math.Inf(1), nil, math.Inf(1)) {
		t.Error("first candidate must beat the nil incumbent")
	}
}

// cloneFramework returns a copy of the paper framework whose cell
// characterizations can be edited without touching the shared one: the
// searchers read every model input through the Framework, so tests inject
// faults and infeasibility by editing a copy's inputs.
func cloneFramework(t *testing.T) *Framework {
	t.Helper()
	base := paperFramework(t)
	f := *base
	f.Cells = make(map[device.Flavor]*CellChar, len(base.Cells))
	for k, v := range base.Cells {
		cc := *v
		f.Cells[k] = &cc
	}
	return &f
}

// TestOptimizeErrorCancelsWithAccurateCounts cancels the search from inside
// the sweep and checks it aborts with the cause and with counts that match
// the work actually done — including that of workers that were canceled
// rather than canceling themselves. A custom objective runs on every
// rail-feasible evaluated point (it disables pruning), so every evaluation
// is either an objective call or a rail skip.
func TestOptimizeErrorCancelsWithAccurateCounts(t *testing.T) {
	f := paperFramework(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	opts := Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.240, VSSCStep: 0.010, NRMax: 1024, NCMax: 1024, NpreMax: 10, NwrMax: 10},
		Objective: func(r *array.Result) float64 {
			if calls.Add(1) == 50 {
				cancel()
			}
			return r.EDP
		},
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	_, err := f.OptimizeContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Optimize error = %v, want context.Canceled", err)
	}
	var serr *SearchError
	if !errors.As(err, &serr) {
		t.Fatalf("Optimize error %T does not carry SearchStats", err)
	}
	st := serr.Stats
	if got, want := st.Evaluated, int(calls.Load())+st.SkippedRails; got != want {
		t.Errorf("aborted search reports %d evaluations, want %d objective calls + %d rail skips = %d",
			got, calls.Load(), st.SkippedRails, want)
	}
	if st.PrunedBound != 0 {
		t.Errorf("custom objective pruned %d points", st.PrunedBound)
	}
	full := 6 * 25 * 10 * 10 // rows × VSSC levels × Npre × Nwr
	if st.Evaluated >= full {
		t.Errorf("search ran to completion (%d evals) despite the cancellation", st.Evaluated)
	}
}

func TestOptimizePreCancelledContext(t *testing.T) {
	f := paperFramework(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.OptimizeContext(ctx, Options{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	var serr *SearchError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T does not carry SearchStats", err)
	}
	if serr.Stats.Evaluated != 0 {
		t.Errorf("pre-cancelled search still evaluated %d points", serr.Stats.Evaluated)
	}
}

// TestSearchPropagatesModelError: a model failure partway through the
// search must abort both searchers with a *SearchError naming it, not
// masquerade as an infeasible search space. The fault is a cell read
// current that turns non-positive after some calls, which the evaluator
// rejects when it prepares a unit.
func TestSearchPropagatesModelError(t *testing.T) {
	for _, pareto := range []bool{false, true} {
		f := cloneFramework(t)
		hvt := f.Cells[device.HVT]
		iRead := hvt.IRead
		var calls atomic.Int64
		hvt.IRead = func(vddc, vssc float64) float64 {
			if calls.Add(1) > 20 {
				return 0
			}
			return iRead(vddc, vssc)
		}
		opts := Options{CapacityBits: 8192, Flavor: device.HVT, Method: M2}
		var err error
		if pareto {
			_, err = f.ParetoSearch(opts)
		} else {
			_, err = f.Optimize(opts)
		}
		var serr *SearchError
		if !errors.As(err, &serr) {
			t.Fatalf("pareto=%v: error %v (%T) does not carry SearchStats", pareto, err, err)
		}
		if errors.Is(err, ErrInfeasible) {
			t.Errorf("pareto=%v: model error misreported as an infeasible search space: %v", pareto, err)
		}
		if !strings.Contains(err.Error(), "non-positive read current") {
			t.Errorf("pareto=%v: error %v does not name the model failure", pareto, err)
		}
	}
}

// TestSearchRejectsBaseFlavorBelowHSNM: hold stability does not depend on
// the searched variables, so both searchers must refuse a base flavor whose
// HSNM is below δ — with the same error — before sweeping anything.
func TestSearchRejectsBaseFlavorBelowHSNM(t *testing.T) {
	f := cloneFramework(t)
	f.Cells[device.HVT].HSNM = f.Delta / 2
	opts := Options{CapacityBits: 4096, Flavor: device.HVT, Method: M2}
	_, optErr := f.Optimize(opts)
	_, parErr := f.ParetoSearch(opts)
	if optErr == nil || parErr == nil {
		t.Fatalf("HSNM below δ accepted: Optimize error %v, ParetoSearch error %v", optErr, parErr)
	}
	if optErr.Error() != parErr.Error() {
		t.Errorf("searchers disagree on the HSNM error:\nOptimize    %v\nParetoSearch %v", optErr, parErr)
	}
	if !strings.Contains(optErr.Error(), "HSNM") {
		t.Errorf("error %v does not name HSNM", optErr)
	}
}

// TestInfeasibleSpaceIsClassified: when every point fails a constraint, both
// searchers report ErrInfeasible (so bank sweeps can skip the partitioning)
// rather than a generic error, with pruning on and off. Bitline drain caps
// ×1e3 make every candidate's assist rails miss the access cycle.
func TestInfeasibleSpaceIsClassified(t *testing.T) {
	f := cloneFramework(t)
	f.Caps.Cdn *= 1e3
	f.Caps.Cdp *= 1e3
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.02, VSSCStep: 0.01, NRMax: 16, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	for _, off := range []bool{false, true} {
		opts.DisableBounds = off
		if _, err := f.Optimize(opts); !errors.Is(err, ErrInfeasible) {
			t.Errorf("DisableBounds=%v: Optimize error = %v, want ErrInfeasible", off, err)
		}
		_, err := f.ParetoSearch(opts)
		var serr *SearchError
		if !errors.Is(err, ErrInfeasible) || !errors.As(err, &serr) {
			t.Fatalf("DisableBounds=%v: ParetoSearch error = %v, want a *SearchError wrapping ErrInfeasible", off, err)
		}
		// 3 organizations × 3 VSSC levels × 2×2 fins; with pruning off every
		// one is evaluated and rejected for its rails.
		st := serr.Stats
		if off && (st.Evaluated != 36 || st.SkippedRails != 36) {
			t.Errorf("full enumeration: %d evaluated, %d rail skips, want 36 and 36", st.Evaluated, st.SkippedRails)
		}
		if !off && (st.Evaluated != 0 || st.PrunedBound != 36) {
			t.Errorf("bounded search: %d evaluated, %d bound-pruned, want 0 and 36", st.Evaluated, st.PrunedBound)
		}
	}
}

// TestCustomObjectiveMatchesBuiltin: a custom objective computing EDP is not
// pointer-equal to ObjectiveEDP, so it takes the no-prune path and the
// full-Result sink; its optimum must be bit-identical to the bounded
// built-in search's, on a plain and on a hybrid space.
func TestCustomObjectiveMatchesBuiltin(t *testing.T) {
	f := paperFramework(t)
	custom := Objective(func(r *array.Result) float64 { return r.EDP })
	sp := DefaultSpace()
	sp.MuxMax = 2
	for _, opts := range []Options{
		{CapacityBits: 4 * 1024 * 8, Flavor: device.HVT, Method: M2},
		{CapacityBits: 2 * 1024 * 8, Flavor: device.LVT, Method: M2, HybridGroups: 2, Space: sp},
	} {
		builtin, err := f.Optimize(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Objective = custom
		got, err := f.Optimize(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Best, builtin.Best) {
			t.Errorf("groups=%d: custom-objective optimum diverges from ObjectiveEDP:\ncustom  %+v\nbuiltin %+v",
				opts.HybridGroups, got.Best, builtin.Best)
		}
		if got.Stats.PrunedBound != 0 || builtin.Stats.PrunedBound == 0 {
			t.Errorf("groups=%d: pruned %d (custom) and %d (built-in) points, want 0 and > 0",
				opts.HybridGroups, got.Stats.PrunedBound, builtin.Stats.PrunedBound)
		}
	}
}

// TestOptimizeShardsFinerThanRows: the work must be sharded on (row × VSSC)
// chunks, not row candidates alone, so parallelism is not capped by the
// handful of feasible organizations.
func TestOptimizeShardsFinerThanRows(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4 * 1024 * 8,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.240, VSSCStep: 0.010, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	opt, err := f.Optimize(opts)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(rowCandidates(opts.CapacityBits, opts.Space))
	vsscs := len(vsscCandidates(opts.Method, opts.Space))
	if rows != 6 || vsscs != 25 {
		t.Fatalf("candidate enumeration changed: %d rows, %d VSSC levels", rows, vsscs)
	}
	if opt.Stats.Chunks != rows*vsscs {
		t.Errorf("Chunks = %d, want the full (row × VSSC) cross product %d", opt.Stats.Chunks, rows*vsscs)
	}
	if opt.Stats.Chunks <= rows {
		t.Errorf("sharding no finer than the %d row candidates", rows)
	}
	wantWorkers := runtime.GOMAXPROCS(0)
	if wantWorkers > opt.Stats.Chunks {
		wantWorkers = opt.Stats.Chunks
	}
	if opt.Stats.Workers != wantWorkers {
		t.Errorf("Workers = %d, want min(GOMAXPROCS, chunks) = %d", opt.Stats.Workers, wantWorkers)
	}
	if opt.Evaluated != opt.Stats.Evaluated || opt.Skipped != opt.Stats.SkippedTotal() {
		t.Error("Optimum.Evaluated/Skipped out of sync with Stats")
	}
}

// TestParetoFrontDeterministic: the frontier merge must also be
// schedule-independent.
func TestParetoFrontDeterministic(t *testing.T) {
	f := paperFramework(t)
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.06, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 6, NwrMax: 4},
	}
	var ref []DesignPoint
	for i, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		front, err := f.ParetoFront(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if i == 0 {
			ref = front
			continue
		}
		if !reflect.DeepEqual(ref, front) {
			t.Errorf("Pareto front is schedule-dependent: %d vs %d points", len(ref), len(front))
		}
	}
}
