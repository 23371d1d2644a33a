package array

import (
	"math"
	"testing"

	"sramco/internal/wire"
)

// FuzzBoundRect is the native-fuzz form of TestBoundRectIsLowerBound, the
// soundness property branch-and-bound pruning rests on. It maps arbitrary
// inputs onto a valid unit — geometry (flat or divided wordline, muxed or
// not), rails, row groups and mask — prepares it on a reused Evaluator, and
// asserts that BoundRect over a random rectangle is at most the EvalInto
// metrics of every point inside it, with the same rail-settling verdict.
func FuzzBoundRect(f *testing.F) {
	// tech, nr, nc, segs, mux, vddc, vssc, vwl, groups, mask, npre lo/span, nwr lo/span
	f.Add(uint8(0), uint8(7), uint8(9), uint8(0), uint8(0), 0.1, 0.1, 0.1, uint8(0), uint8(0), uint8(0), uint8(49), uint8(0), uint8(19))
	f.Add(uint8(1), uint8(8), uint8(7), uint8(1), uint8(2), 0.13, 0.24, 0.2, uint8(3), uint8(0x5a), uint8(3), uint8(9), uint8(2), uint8(5))
	f.Add(uint8(2), uint8(9), uint8(10), uint8(3), uint8(1), 0.16, 0.0, 0.15, uint8(1), uint8(0x1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), 0.0, 0.29, 0.0, uint8(2), uint8(0xf), uint8(40), uint8(200), uint8(10), uint8(200))

	var evs []*Evaluator
	for _, tech := range evaluatorTechs(f) {
		ev, err := NewEvaluator(tech, act)
		if err != nil {
			f.Fatal(err)
		}
		evs = append(evs, ev)
	}
	alt := altTerms()

	f.Fuzz(func(t *testing.T, techSel, nrExp, ncExp, segsExp, muxExp uint8, dVDDC, dVSSC, dVWL float64,
		groupsExp, mask, npreLo, npreSpan, nwrLo, nwrSpan uint8) {
		for _, v := range []float64{dVDDC, dVSSC, dVWL} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		ev := evs[int(techSel)%len(evs)]
		g := wire.Geometry{NR: 2 << (nrExp % 10), NC: 1 << (ncExp % 11), W: 64, Npre: 1, Nwr: 1,
			WLSegs: 1 << (segsExp % 4)}
		g.W = min(g.W, g.NC)
		if m := 1 << (muxExp % 4); m > 1 {
			g.Mux = m
		}
		if g.Validate() != nil {
			return
		}
		// Rails within 0.3 V of their bounds: VDDC, VWL ≥ Vdd and VSSC ≤ 0.
		vdd := ev.tech.Vdd
		vddc := vdd + math.Mod(math.Abs(dVDDC), 0.3)
		vssc := -math.Mod(math.Abs(dVSSC), 0.3)
		vwl := vdd + math.Mod(math.Abs(dVWL), 0.3)
		var err error
		if groups := 1 << (groupsExp % 4); groups > 1 {
			h := Hybrid{Groups: groups, Mask: uint32(mask) & (1<<groups - 1), Alt: alt}
			err = ev.PrepareHybrid(g, vddc, vssc, vwl, h)
		} else {
			err = ev.Prepare(g, vddc, vssc, vwl)
		}
		if err != nil {
			return // e.g. row groups that do not divide n_r
		}
		pLo := 1 + int(npreLo)%50
		pHi := pLo + int(npreSpan)%(51-pLo)
		wLo := 1 + int(nwrLo)%20
		wHi := wLo + int(nwrSpan)%(21-wLo)
		b, err := ev.BoundRect(pLo, pHi, wLo, wHi)
		if err != nil {
			t.Fatal(err)
		}
		var r Result
		for npre := pLo; npre <= pHi; npre++ {
			for nwr := wLo; nwr <= wHi; nwr++ {
				if err := ev.EvalInto(npre, nwr, &r); err != nil {
					t.Fatal(err)
				}
				if b.RailsSettleInTime != r.RailsSettleInTime {
					t.Fatalf("bound feasibility %v disagrees with point (%d,%d) %v", b.RailsSettleInTime, npre, nwr, r.RailsSettleInTime)
				}
				if b.DArray > r.DArray || b.EArray > r.EArray || b.EDP > r.EDP || b.Area > r.Area || b.PADP > r.PADP {
					t.Fatalf("bound exceeds point (%d,%d) of rect [%d,%d]×[%d,%d] in %+v rails (%g,%g,%g):\n  bound %+v\n  point D=%g E=%g EDP=%g Area=%g PADP=%g",
						npre, nwr, pLo, pHi, wLo, wHi, g, vddc, vssc, vwl, b, r.DArray, r.EArray, r.EDP, r.Area, r.PADP)
				}
			}
		}
	})
}
