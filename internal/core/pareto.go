package core

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// ParetoResult pairs the energy-delay frontier with the search statistics of
// the sweep that produced it, mirroring Optimum for the scalarized search.
type ParetoResult struct {
	Front []DesignPoint
	Stats SearchStats
}

// ParetoFront is ParetoFrontContext without cancellation.
func (f *Framework) ParetoFront(opts Options) ([]DesignPoint, error) {
	return f.ParetoFrontContext(context.Background(), opts)
}

// ParetoFrontContext returns just the frontier of ParetoSearchContext,
// preserving the historical signature.
func (f *Framework) ParetoFrontContext(ctx context.Context, opts Options) ([]DesignPoint, error) {
	res, err := f.ParetoSearchContext(ctx, opts)
	if err != nil {
		return nil, err
	}
	return res.Front, nil
}

// ParetoSearch is ParetoSearchContext without cancellation.
func (f *Framework) ParetoSearch(opts Options) (*ParetoResult, error) {
	return f.ParetoSearchContext(context.Background(), opts)
}

// ParetoSearchContext exhaustively enumerates the same search space as
// Optimize — including divided-wordline segmentation when
// Options.SearchWLSegs is set — but returns the full energy-delay Pareto
// frontier instead of the single minimum-EDP point: every feasible design
// for which no other feasible design is both faster and lower-energy. Points
// are returned sorted by increasing delay (hence decreasing energy),
// together with the same SearchStats the other searchers report.
//
// The frontier exposes the trade-off the EDP scalarization hides — e.g. how
// much energy a delay-critical cache bank must pay to match LVT speed.
//
// It runs the same search driver as OptimizeContext with a frontier sink:
// the sweep shards (row × VSSC) chunks over workers, emits the core.search
// span/counter scheme (run span core.search.pareto, one core.search.chunk
// span per shard), cancels on the first model error or ctx cancellation —
// returning a *SearchError carrying the counts so far — and resolves metric
// ties canonically so the returned frontier is deterministic for any
// GOMAXPROCS.
func (f *Framework) ParetoSearchContext(ctx context.Context, opts Options) (*ParetoResult, error) {
	s, err := f.newSearch(ctx, opts, true)
	if err != nil {
		return nil, err
	}
	slots, st, err := s.run()
	if err != nil {
		return nil, err
	}
	var candidates []DesignPoint
	for i := range slots {
		candidates = append(candidates, slots[i].front...)
	}
	return mergePareto(candidates, st, s.opts.CapacityBits)
}

// mergePareto reduces worker-local fronts to the global frontier. A globally
// non-dominated point survives every worker-local reduction, so the union of
// local fronts contains the global frontier regardless of how chunks were
// distributed. Inserting the union in canonical design order makes metric
// ties order-free too; the result is sorted by increasing delay.
func mergePareto(candidates []DesignPoint, stats SearchStats, capacityBits int) (*ParetoResult, error) {
	sort.Slice(candidates, func(i, j int) bool {
		return designLess(candidates[i].Design, candidates[j].Design)
	})
	var merged []DesignPoint
	for _, p := range candidates {
		merged = insertPareto(merged, p)
	}
	if len(merged) == 0 {
		return nil, &SearchError{
			Stats: stats,
			Cause: fmt.Errorf("%w: empty Pareto front for %d bits", ErrInfeasible, capacityBits),
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		di, dj := merged[i].Result, merged[j].Result
		if di.DArray != dj.DArray {
			return di.DArray < dj.DArray
		}
		if di.EArray != dj.EArray {
			return di.EArray < dj.EArray
		}
		return designLess(merged[i].Design, merged[j].Design)
	})
	return &ParetoResult{Front: merged, Stats: stats}, nil
}

// insertPareto inserts p into a non-dominated set, dropping p if dominated
// and evicting any points p dominates. Domination is on (DArray, EArray),
// minimizing both; exact metric ties keep the canonically smaller design so
// the front does not depend on insertion order.
func insertPareto(front []DesignPoint, p DesignPoint) []DesignPoint {
	pd, pe := p.Result.DArray, p.Result.EArray
	for i, q := range front {
		qd, qe := q.Result.DArray, q.Result.EArray
		if qd == pd && qe == pe {
			if designLess(p.Design, q.Design) {
				front[i] = p
			}
			return front
		}
		if qd <= pd && qe <= pe {
			// q dominates p: keep the existing front unchanged.
			return front
		}
	}
	keep := front[:0]
	for _, q := range front {
		if !(pd <= q.Result.DArray && pe <= q.Result.EArray) {
			keep = append(keep, q)
		}
	}
	return append(keep, p)
}

// KneePoint returns the index of the frontier point closest (in normalized
// log space) to the utopia point (min delay, min energy) — a useful default
// pick when EDP is not the intended scalarization. It panics on an empty
// frontier.
func KneePoint(front []DesignPoint) int {
	if len(front) == 0 {
		panic("core: KneePoint of empty frontier")
	}
	minD, minE := math.Inf(1), math.Inf(1)
	maxD, maxE := math.Inf(-1), math.Inf(-1)
	for _, p := range front {
		minD = math.Min(minD, p.Result.DArray)
		minE = math.Min(minE, p.Result.EArray)
		maxD = math.Max(maxD, p.Result.DArray)
		maxE = math.Max(maxE, p.Result.EArray)
	}
	spanD, spanE := maxD-minD, maxE-minE
	if spanD == 0 {
		spanD = 1
	}
	if spanE == 0 {
		spanE = 1
	}
	best, bestDist := 0, math.Inf(1)
	for i, p := range front {
		dd := (p.Result.DArray - minD) / spanD
		de := (p.Result.EArray - minE) / spanE
		if dist := dd*dd + de*de; dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
