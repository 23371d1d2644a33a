package array

import (
	"math"

	"sramco/internal/periph"
)

// memo is one table of memoized device-model terms. Float keys are
// math.Float64bits, so two rails share an entry only when they are the same
// float64 (-0 and +0 stay distinct), and an entry is always the exact value
// its expression produced on first use. The last entry is checked before
// the map: consecutive units of a search mostly share their keys. The map
// is only allocated at the second distinct key, so the one-shot Evaluate
// path, which sees one key per table, allocates nothing.
type memo[K comparable, V any] struct {
	m       map[K]V
	lastK   K
	lastV   V
	hasLast bool
}

// memoCap bounds each memo table. A search touches a few dozen keys; a
// long-lived Evaluator fed arbitrary rails starts a table over when it fills
// instead of growing without bound.
const memoCap = 1024

// get returns the entry for k, computing it with f on a miss.
func (t *memo[K, V]) get(k K, f func() V) V {
	if t.hasLast && t.lastK == k {
		return t.lastV
	}
	v, ok := t.m[k]
	if !ok {
		v = f()
		if t.hasLast {
			if t.m == nil || len(t.m) >= memoCap {
				t.m = map[K]V{t.lastK: t.lastV}
			}
			t.m[k] = v
		}
	}
	t.lastK, t.lastV, t.hasLast = k, v, true
	return v
}

// termMemo holds the rail- and geometry-keyed device-model terms of Prepare.
type termMemo struct {
	icvdd, icvss, iwl, writeDelay memo[uint64, float64]
	iRead                         memo[[2]uint64, float64] // base flavor at (VDDC, VSSC)
	rowDec                        memo[int, periph.DecoderResult]
	colDec                        memo[[2]int, periph.DecoderResult] // by (n_c, W)
}

// baseIRead is the memoized base-flavor read current Tech.IRead(vddc, vssc).
func (e *Evaluator) baseIRead(vddc, vssc float64) float64 {
	return e.memo.iRead.get(railKey(vddc, vssc), func() float64 { return e.tech.IRead(vddc, vssc) })
}

// railKey is the memo key of a (VDDC, VSSC) rail pair.
func railKey(vddc, vssc float64) [2]uint64 {
	return [2]uint64{math.Float64bits(vddc), math.Float64bits(vssc)}
}

// Memoized returns ft with IRead and WriteDelayCell memoized per distinct
// rail. An Evaluator cannot memoize a Hybrid's alternate terms across
// PrepareHybrid calls, because Hybrid.Alt may change between them and func
// values cannot key a memo; a caller that holds one alternate fixed over
// many calls (a search worker) wraps it once instead. The result is not
// safe for concurrent use: build one per goroutine. Terms with a nil
// provider are returned unchanged.
func (ft FlavorTerms) Memoized() FlavorTerms {
	if ft.IRead == nil || ft.WriteDelayCell == nil {
		return ft
	}
	var iRead memo[[2]uint64, float64]
	var writeDelay memo[uint64, float64]
	m := ft
	m.IRead = func(vddc, vssc float64) float64 {
		return iRead.get(railKey(vddc, vssc), func() float64 { return ft.IRead(vddc, vssc) })
	}
	m.WriteDelayCell = func(vwl float64) float64 {
		return writeDelay.get(math.Float64bits(vwl), func() float64 { return ft.WriteDelayCell(vwl) })
	}
	return m
}
