package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sramco/internal/array"
	"sramco/internal/obs"
	"sramco/internal/wire"
)

// This file is the one search driver behind both OptimizeContext and
// ParetoSearchContext: a shared preamble (newSearch), one unit enumerator
// (enumerate), one unit sweep (sweepChunk/sweepRow) and two sinks (takeMin for
// the argmin searcher, takePareto for the frontier searcher).
//
// The search space factors into (chunk × segmentation × mux × group-mask)
// units, each an (N_pre, N_wr) rectangle sharing one Prepare. A cheap
// certified lower bound (array.BoundRect) over a unit — or over part of one
// N_pre row of it — lets the sweep skip the rectangle wholesale when even the
// bound cannot change the answer, charging the skipped points to
// SearchStats.PrunedBound. Under DisableBounds, or for a custom Objective
// (which has no known bound), the prune test never fires and the sweep
// enumerates every point.
//
// Determinism: SearchStats documents that every count is bit-identical for a
// given Options regardless of GOMAXPROCS, and the serving layer's catalog
// relies on byte-identical response bodies. Pruning against a racy
// cross-worker incumbent would make Evaluated/PrunedBound depend on
// scheduling, so pruning thresholds are derived only from
// schedule-independent state (DESIGN.md §11):
//
//  1. a bound pass prepares every unit on its worker's Evaluator and bounds
//     its full rectangle, keeping only the classification and the bound;
//  2. the unit with the best bound seeds the search: its chunk is swept
//     first, alone, and its result freezes the global threshold T (argmin)
//     or the seed front f0 (Pareto);
//  3. the remaining chunks are sharded over workers, each pruning against
//     the frozen state and its own chunk-local best — both independent of
//     which worker runs the chunk or in what order. A unit that survives the
//     unit-level prune is prepared again on the sweeping worker's Evaluator.
//
// Each worker owns one Evaluator for the whole run, so the device-model
// terms it memoizes (array.Evaluator) are computed once per distinct rail or
// geometry key rather than once per unit.

// bnbMinRun is the N_wr range width below which the searcher sweeps the
// points instead of bisecting further: a BoundRect costs about an eighth of
// sweeping this many points, so bounding smaller ranges stops paying.
const bnbMinRun = 4

// searchUnit is one (chunk, segmentation, mux, group-mask) rectangle as the
// enumerator classified it: geometry-invalid (charged to SkippedGeom),
// RSNM-skipped (charged to SkippedRSNM), or prepared — in which case bound
// is the lower bound over its full (N_pre, N_wr) range.
type searchUnit struct {
	segs        int
	mux         int
	spec        maskSpec
	geomInvalid bool
	rsnmSkip    bool
	bound       array.Bound
}

// prepared reports whether the unit is swept (or pruned by its bound)
// rather than skipped.
func (u *searchUnit) prepared() bool { return !u.geomInvalid && !u.rsnmSkip }

// search carries the shared state of one run of the driver.
type search struct {
	opts      Options // normalized
	delta     float64
	specs     []maskSpec
	alt       array.FlavorTerms
	cc, altCC *CellChar
	evProto   *array.Evaluator
	chunks    []chunk
	units     [][]searchUnit // aligned with chunks
	workers   int

	pareto bool    // frontier sink instead of argmin
	kind   objKind // objective whose bound picks the seed chunk (and prunes, for a pruned argmin search)
	prune  bool    // branch-and-bound on: !DisableBounds, and a built-in objective or the frontier

	stats  SearchStats // preamble counts: PrunedVSSC, SkippedRSNM of pruned levels, Chunks
	start  time.Time
	span   obs.Span
	sctx   context.Context
	cancel context.CancelCauseFunc

	// Frozen after the seed chunk and read-only during the sharded sweep.
	T  float64       // argmin pruning threshold
	f0 []DesignPoint // Pareto seed front
}

// searchWorker accumulates one worker's partial view of the search.
type searchWorker struct {
	ev      *array.Evaluator  // prepares every unit this worker bounds or sweeps
	alt     array.FlavorTerms // the search's alternate flavor, memoized per worker
	stats   SearchStats       // Evaluated / Skipped* / PrunedBound only
	sweep   array.SweepBlock
	scratch array.Result

	// Argmin sink: the worker-local best and, for the chunk being swept,
	// the chunk-local incumbent objective that refines T.
	best  *DesignPoint
	obj   float64
	local float64

	// Pareto sink: the worker-local frontier.
	front []DesignPoint
}

// newSearch is the preamble both searchers share: it normalizes the options,
// checks HSNM for every flavor the search can place, prunes the VSSC levels
// no group-assignment class reads stably (charging them against
// validCombosPerLevel), shards the rest into (organization × VSSC) chunks and
// opens the run span. The caller must run the returned search.
func (f *Framework) newSearch(ctx context.Context, opts Options, pareto bool) (*search, error) {
	start := time.Now()
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	tech, err := f.ArrayTech(opts.Flavor)
	if err != nil {
		return nil, err
	}
	cc := f.Cells[opts.Flavor]
	specs, alt, altCC, err := f.maskSpecs(&opts)
	if err != nil {
		return nil, err
	}
	// Yield feasibility that does not depend on the searched variables:
	// HSNM at nominal and WM at VWL* are met by construction of the starred
	// rails; HSNM is checked here (for both flavors of a hybrid search).
	for _, c := range []*CellChar{cc, altCC} {
		if c != nil && c.HSNM < f.Delta {
			return nil, fmt.Errorf("core: 6T-%v HSNM %.3f below δ=%.3f at Vdd=%.3f", c.Flavor, c.HSNM, f.Delta, f.Vdd)
		}
	}
	evProto, err := array.NewEvaluator(tech, opts.Activity)
	if err != nil {
		return nil, err
	}
	rows := rowCandidates(opts.CapacityBits, opts.Space)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: %w: no feasible organization for %d bits within the search space", ErrInfeasible, opts.CapacityBits)
	}

	var stats SearchStats
	// Read-stability feasibility depends on VSSC alone: prune a sweep level
	// up front only when every group-assignment class fails it (a
	// global-flavor search has one class, so this is the historical
	// single-flavor prune). Levels where only some classes fail are kept and
	// the infeasible classes are skipped — and counted — per unit.
	var feasVSSC []float64
	for _, v := range vsscCandidates(opts.Method, opts.Space) {
		anyOK := false
		for _, s := range specs {
			if specRSNMOK(s, v, cc, altCC, f.Delta) {
				anyOK = true
				break
			}
		}
		if !anyOK {
			stats.PrunedVSSC++
			continue
		}
		feasVSSC = append(feasVSSC, v)
	}
	if stats.PrunedVSSC > 0 {
		// Charge pruned levels only for candidates the sweep would actually
		// have evaluated: combinations Geom.Validate rejects are SkippedGeom
		// on feasible levels and must not be double-booked as RSNM skips,
		// or Evaluated + SkippedTotal() stops reconciling with the candidate
		// count.
		stats.SkippedRSNM = stats.PrunedVSSC * validCombosPerLevel(&opts, rows)
	}
	if len(feasVSSC) == 0 {
		return nil, &SearchError{
			Stats: finishStats(stats, start, 0),
			Cause: fmt.Errorf("%w: every VSSC level fails the read-stability constraint", ErrInfeasible),
		}
	}

	chunks := make([]chunk, 0, len(rows)*len(feasVSSC))
	for _, rc := range rows {
		for _, vssc := range feasVSSC {
			chunks = append(chunks, chunk{rc: rc, vssc: vssc})
		}
	}
	stats.Chunks = len(chunks)
	workers := min(runtime.GOMAXPROCS(0), len(chunks))

	kind := objectiveKind(opts.Objective)
	spanName := "core.search"
	if pareto {
		// The frontier ignores Objective; its seed is picked by EDP bound.
		kind, spanName = objEDP, "core.search.pareto"
	}
	mSearchRuns.Inc()
	gSearchChunks.Set(float64(len(chunks)))
	span := obs.StartSpanCtx(ctx, spanName)
	span.Int("capacity_bits", int64(opts.CapacityBits))
	span.Str("method", opts.Method.String())
	span.Int("chunks", int64(len(chunks)))
	span.Int("workers", int64(workers))

	sctx, cancel := context.WithCancelCause(ctx)
	return &search{
		opts: opts, delta: f.Delta, specs: specs, alt: alt, cc: cc, altCC: altCC,
		evProto: evProto, chunks: chunks, workers: workers,
		pareto: pareto, kind: kind,
		prune: !opts.DisableBounds && (pareto || kind != objCustom),
		stats: stats, start: start, span: span, sctx: sctx, cancel: cancel,
		T: math.Inf(1),
	}, nil
}

// run executes the search: bound pass → seed chunk → frozen-state sharded
// sweep. It returns the workers' partial results and the folded stats, or a
// *SearchError carrying the stats when a model error or ctx ended the run.
func (s *search) run() ([]searchWorker, SearchStats, error) {
	defer s.cancel(nil)
	slots := make([]searchWorker, s.workers)
	for i := range slots {
		slots[i].ev = s.evProto.Clone()
		slots[i].alt = s.alt.Memoized()
		slots[i].obj = math.Inf(1)
	}
	if !s.boundPass(slots) {
		return s.finish(slots)
	}
	seed := s.pickSeed()
	if seed >= 0 && !s.sweepChunk(seed, &slots[0]) {
		return s.finish(slots)
	}
	// Freeze a copy of the seed front: insertPareto mutates fronts in place,
	// and the seed slot keeps accumulating in the sharded phase.
	s.T = slots[0].obj
	s.f0 = append([]DesignPoint(nil), slots[0].front...)

	jobs := make(chan int, len(s.chunks))
	for ci := range s.chunks {
		if ci != seed {
			jobs <- ci
		}
	}
	close(jobs)
	s.fanOut(func(w int) {
		for ci := range jobs {
			if !s.sweepChunk(ci, &slots[w]) {
				return
			}
		}
	})
	return s.finish(slots)
}

// fanOut runs fn once per worker index concurrently and waits for all.
func (s *search) fanOut(fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// finish folds the worker counters into the run stats and closes the run
// span; the cause of a canceled run becomes a *SearchError.
func (s *search) finish(slots []searchWorker) ([]searchWorker, SearchStats, error) {
	st := s.stats
	for i := range slots {
		st.addWorker(slots[i].stats)
	}
	st = finishStats(st, s.start, s.workers)
	s.span.Int("evaluated", int64(st.Evaluated))
	s.span.Int("pruned_bound", int64(st.PrunedBound))
	s.span.Float("bound_efficiency", st.BoundEfficiency())
	s.span.End()
	if cause := context.Cause(s.sctx); cause != nil {
		return nil, st, &SearchError{Stats: st, Cause: cause}
	}
	return slots, st, nil
}

// evalErr names the point a model error came from.
func evalErr(c chunk, npre, nwr int, err error) error {
	return fmt.Errorf("core: evaluating n_r=%d n_c=%d N_pre=%d N_wr=%d VSSC=%g: %w",
		c.rc.nr, c.rc.nc, npre, nwr, c.vssc, err)
}

// boundPass enumerates every chunk's units, striping chunks over workers.
// Unit construction is pure per-chunk work, so the stripe assignment cannot
// affect the result. It reports false when the run was canceled. Its span
// carries the unit counts and ends on every path, tagged with the cause
// when the run was canceled.
func (s *search) boundPass(slots []searchWorker) bool {
	sp := obs.StartSpanCtx(s.sctx, "core.search.bound_pass")
	s.units = make([][]searchUnit, len(s.chunks))
	s.fanOut(func(w int) {
		for ci := w; ci < len(s.chunks); ci += s.workers {
			if s.sctx.Err() != nil {
				return
			}
			us, err := s.enumerate(s.chunks[ci], &slots[w])
			if err != nil {
				s.cancel(err)
				return
			}
			s.units[ci] = us
		}
	})
	var units, prepared int64
	for _, us := range s.units {
		units += int64(len(us))
		for i := range us {
			if us[i].prepared() {
				prepared++
			}
		}
	}
	sp.Int("units", units)
	sp.Int("prepared", prepared)
	cause := context.Cause(s.sctx)
	if cause != nil && sp.On() {
		sp.Str("err", cause.Error())
	}
	sp.End()
	return cause == nil
}

// prepareUnit prepares the worker's Evaluator for the (N_pre, N_wr)
// rectangle of a prepared unit of chunk c.
func (s *search) prepareUnit(w *searchWorker, c chunk, u *searchUnit) error {
	g := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: accessWidth(s.opts.W, c.rc.nc),
		Npre: 1, Nwr: 1, WLSegs: u.segs, Mux: u.mux}
	// Groups ≤ 1 degenerates to the global-flavor Prepare.
	err := w.ev.PrepareHybrid(g, u.spec.vddc, c.vssc, u.spec.vwl,
		array.Hybrid{Groups: s.opts.HybridGroups, Mask: u.spec.mask, Alt: w.alt})
	if err != nil {
		return evalErr(c, 1, 1, err)
	}
	return nil
}

// enumerate is the unit enumerator: it yields one chunk's units in the fixed
// (segs, mux, mask) order the sweep visits them, each already classified.
// Each prepared unit is prepared on the worker's Evaluator just long enough
// to bound its full (N_pre, N_wr) rectangle; only the bound is kept.
func (s *search) enumerate(c chunk, w *searchWorker) ([]searchUnit, error) {
	space := s.opts.Space
	width := accessWidth(s.opts.W, c.rc.nc)
	segsList := segCandidates(&s.opts, c.rc.nc, width)
	muxList := muxCandidates(space, width)
	us := make([]searchUnit, 0, len(segsList)*len(muxList)*len(s.specs))
	for _, segs := range segsList {
		for _, mux := range muxList {
			// Structural validity is invariant across the inner sweep: decide
			// it once on the base geometry. A hybrid organization that cannot
			// hold the row groups is structurally invalid the same way.
			base := wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: width, Npre: 1, Nwr: 1, WLSegs: segs, Mux: mux}
			valid := base.Validate() == nil && (!s.opts.hybridOn() || c.rc.nr%s.opts.HybridGroups == 0)
			for _, sp := range s.specs {
				u := searchUnit{segs: segs, mux: mux, spec: sp}
				switch {
				case !valid:
					u.geomInvalid = true
				case !specRSNMOK(sp, c.vssc, s.cc, s.altCC, s.delta):
					u.rsnmSkip = true
				default:
					if err := s.prepareUnit(w, c, &u); err != nil {
						return nil, err
					}
					b, err := w.ev.BoundRect(1, space.NpreMax, 1, space.NwrMax)
					if err != nil {
						return nil, evalErr(c, 1, 1, err)
					}
					u.bound = b
				}
				us = append(us, u)
			}
		}
	}
	return us, nil
}

// pickSeed returns the chunk containing the unit with the smallest objective
// bound among rail-feasible units (ties: lowest chunk index, then unit
// order) — the rectangle most likely to contain the global optimum, so the
// state frozen after sweeping it prunes aggressively everywhere else. It
// returns -1 when no unit is rail-feasible.
func (s *search) pickSeed() int {
	best, ci := math.Inf(1), -1
	for i, us := range s.units {
		for _, u := range us {
			if !u.prepared() || !u.bound.RailsSettleInTime {
				continue
			}
			if b := s.objBound(&u.bound); b < best {
				best, ci = b, i
			}
		}
	}
	return ci
}

// objBound reads the lower bound matching the objective (EDP for a custom
// objective, which is only used to pick the seed).
func (s *search) objBound(b *array.Bound) float64 {
	switch s.kind {
	case objDelay:
		return b.DArray
	case objEnergy:
		return b.EArray
	case objArea:
		return b.Area
	case objPADP:
		return b.PADP
	}
	return b.EDP
}

// objLane returns the sweep lane matching the built-in objective, or nil for
// a custom objective, which must be evaluated on a full Result.
func (s *search) objLane(sw *array.SweepBlock) []float64 {
	switch s.kind {
	case objCustom:
		return nil
	case objDelay:
		return sw.DArray
	case objEnergy:
		return sw.EArray
	case objArea:
		return sw.Area
	case objPADP:
		return sw.PADP
	}
	return sw.EDP
}

// prunes is the branch-and-bound test: whether no point of a rectangle with
// lower bound b can change the answer. Rail settling is chunk-invariant (§4),
// so a rail-infeasible bound prunes its whole rectangle; otherwise the
// argmin search prunes when the objective bound exceeds min(T, chunk-local
// best), and the frontier search when a frozen seed-front member dominates
// the bound. Never true without pruning.
func (s *search) prunes(w *searchWorker, b *array.Bound) bool {
	switch {
	case !s.prune:
		return false
	case !b.RailsSettleInTime:
		return true
	case s.pareto:
		return frontDominatesRect(s.f0, b.DArray, b.EArray)
	}
	return s.objBound(b) > math.Min(s.T, w.local)
}

// sweepChunk is the unit sweep over one chunk: it books the skipped units,
// prunes or sweeps every prepared one, and feeds the swept points to the
// worker's sink. A chunk is swept by exactly one goroutine, so the
// chunk-local incumbent and every count are deterministic. It reports false
// on cancellation or a model error.
func (s *search) sweepChunk(ci int, w *searchWorker) bool {
	if s.sctx.Err() != nil {
		return false
	}
	c := s.chunks[ci]
	space := s.opts.Space
	pts := space.NpreMax * space.NwrMax

	chunkStart := time.Now()
	sp := obs.StartSpanCtx(s.sctx, "core.search.chunk")
	evals0, pruned0 := w.stats.Evaluated, w.stats.PrunedBound
	flushed := evals0
	// flush publishes the evaluations since the last flush to the live
	// counter — once per N_wr row: cheap enough for the hot loop, fresh
	// enough for -progress.
	flush := func() {
		mSearchEvaluated.Add(int64(w.stats.Evaluated - flushed))
		flushed = w.stats.Evaluated
	}

	ok := true
	w.local = math.Inf(1)
units:
	for ui := range s.units[ci] {
		u := &s.units[ci][ui]
		// Skipped and pruned units are O(1) bookkeeping; cancellation is
		// checked only before a unit that is swept (context.Err takes a lock).
		switch {
		case u.geomInvalid:
			w.stats.SkippedGeom += pts
			continue
		case u.rsnmSkip:
			w.stats.SkippedRSNM += pts
			continue
		case s.prunes(w, &u.bound):
			w.stats.PrunedBound += pts
			continue
		case s.sctx.Err() != nil:
			ok = false
			break units
		}
		if err := s.prepareUnit(w, c, u); err != nil {
			s.cancel(err)
			ok = false
			break units
		}
		for npre := 1; npre <= space.NpreMax; npre++ {
			if s.sctx.Err() != nil || !s.sweepRow(c, u, w, npre, 1, space.NwrMax) {
				ok = false
				break units
			}
			flush()
		}
	}
	flush()
	s.units[ci] = nil // each chunk is swept once
	if ok {
		mSearchChunks.Inc()
		hChunkDur.Observe(time.Since(chunkStart))
	}
	sp.Int("nr", int64(c.rc.nr))
	sp.Int("nc", int64(c.rc.nc))
	sp.Float("vssc", c.vssc)
	sp.Int("evaluated", int64(w.stats.Evaluated-evals0))
	sp.Int("pruned_bound", int64(w.stats.PrunedBound-pruned0))
	sp.End()
	return ok
}

// sweepRow sweeps N_wr ∈ [lo, hi] of one N_pre row of the unit prepared on
// the worker's Evaluator. With pruning on it first bounds the range and, if
// the bound does not prune it, bisects: the bound's write-buffer current is
// taken at the range's high end, so its slack on a full row is ~NwrMax×;
// each halving tightens it 2×, and a BoundRect is ~an eighth of sweeping the
// points it can prune. Recursion is sequential within the chunk, so the
// counts and the incumbent updates stay deterministic. Without pruning the
// row is swept in one EvalSweep, and a rail-infeasible unit's points are
// evaluated and booked as SkippedRails.
func (s *search) sweepRow(c chunk, u *searchUnit, w *searchWorker, npre, lo, hi int) bool {
	n := hi - lo + 1
	if s.prune {
		rb, err := w.ev.BoundRect(npre, npre, lo, hi)
		if err != nil {
			s.cancel(evalErr(c, npre, lo, err))
			return false
		}
		if s.prunes(w, &rb) {
			w.stats.PrunedBound += n
			return true
		}
		if n > bnbMinRun {
			mid := (lo + hi) / 2
			return s.sweepRow(c, u, w, npre, lo, mid) && s.sweepRow(c, u, w, npre, mid+1, hi)
		}
	}
	if err := w.ev.EvalSweep(npre, lo, hi, &w.sweep); err != nil {
		s.cancel(evalErr(c, npre, lo, err))
		return false
	}
	w.stats.Evaluated += n
	if !u.bound.RailsSettleInTime {
		w.stats.SkippedRails += n
		return true
	}
	if s.pareto {
		return s.takePareto(c, u, w, npre, lo, n)
	}
	return s.takeMin(c, u, w, npre, lo, n)
}

// unitDesign materializes the Design identity of one point of a unit, with
// the hybrid fields stamped exactly as the evaluator stamps its Results so
// tie-break comparisons see identical values.
func (s *search) unitDesign(c chunk, u *searchUnit, npre, nwr int) array.Design {
	d := array.Design{
		Geom: wire.Geometry{NR: c.rc.nr, NC: c.rc.nc, W: accessWidth(s.opts.W, c.rc.nc),
			Npre: npre, Nwr: nwr, WLSegs: u.segs, Mux: u.mux},
		VDDC: u.spec.vddc, VSSC: c.vssc, VWL: u.spec.vwl,
	}
	if s.opts.hybridOn() {
		d.Groups, d.GroupMask = s.opts.HybridGroups, u.spec.mask
	}
	return d
}

// takeMin is the argmin sink: it folds the n swept points starting at N_wr =
// lo into the worker-local best. Built-in objectives read the sweep lane and
// materialize a Result only for a winner (the lanes are bit-identical to
// EvalInto, so the stored objective matches the Result exactly); a custom
// objective is applied to every point's EvalInto Result.
func (s *search) takeMin(c chunk, u *searchUnit, w *searchWorker, npre, lo, n int) bool {
	lane := s.objLane(&w.sweep)
	for i := 0; i < n; i++ {
		nwr := lo + i
		var v float64
		if lane != nil {
			v = lane[i]
		} else {
			if err := w.ev.EvalInto(npre, nwr, &w.scratch); err != nil {
				s.cancel(evalErr(c, npre, nwr, err))
				return false
			}
			v = s.opts.Objective(&w.scratch)
		}
		if v < w.local {
			w.local = v
		}
		win := w.best == nil || v < w.obj
		if !win && v == w.obj {
			win = designLess(s.unitDesign(c, u, npre, nwr), w.best.Design)
		}
		if !win {
			continue
		}
		if lane != nil {
			if err := w.ev.EvalInto(npre, nwr, &w.scratch); err != nil {
				s.cancel(evalErr(c, npre, nwr, err))
				return false
			}
		}
		rc := w.scratch
		w.best, w.obj = &DesignPoint{Design: rc.Design, Result: &rc}, v
	}
	return true
}

// takePareto is the frontier sink: it inserts each of the n swept points
// starting at N_wr = lo into the worker-local front, materializing a Result
// only when the insertion would change the front. The decisions consult the
// worker-local front only, never the counts, so stats stay
// schedule-independent.
func (s *search) takePareto(c chunk, u *searchUnit, w *searchWorker, npre, lo, n int) bool {
	for i := 0; i < n; i++ {
		nwr := lo + i
		if !paretoWouldChange(w.front, w.sweep.DArray[i], w.sweep.EArray[i], s.unitDesign(c, u, npre, nwr)) {
			continue
		}
		if err := w.ev.EvalInto(npre, nwr, &w.scratch); err != nil {
			s.cancel(evalErr(c, npre, nwr, err))
			return false
		}
		rc := w.scratch
		w.front = insertPareto(w.front, DesignPoint{Design: rc.Design, Result: &rc})
	}
	return true
}

// frontDominatesRect reports whether a front member proves every point of a
// rectangle with metric lower bounds (bD, bE) redundant: some q is ≤ the
// bound in both metrics and strictly below in at least one. Strictness in
// one coordinate protects exact metric ties, whose canonical replacement in
// insertPareto must still see the candidate.
func frontDominatesRect(front []DesignPoint, bD, bE float64) bool {
	for _, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if (qd <= bD && qe < bE) || (qd < bD && qe <= bE) {
			return true
		}
	}
	return false
}

// paretoWouldChange mirrors insertPareto's decision for a point with metrics
// (d, e) and design cand without materializing its Result: false when an
// existing member weakly dominates it (and an exact tie would keep the
// canonical incumbent), true when inserting would alter the front.
func paretoWouldChange(front []DesignPoint, d, e float64, cand array.Design) bool {
	for _, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if qd == d && qe == e {
			return designLess(cand, q.Design)
		}
		if qd <= d && qe <= e {
			return false
		}
	}
	return true
}
