package array

import (
	"math/rand"
	"testing"

	"sramco/internal/wire"
)

// randomChunk draws a structurally valid chunk (geometry base + rails) for
// the given rng, spanning flat/divided wordlines and the VSSC sweep range.
func randomChunk(rng *rand.Rand) (wire.Geometry, float64) {
	for {
		nr := 2 << rng.Intn(10)  // 2..1024
		nc := 1 << rng.Intn(11)  // 1..1024
		segs := 1 << rng.Intn(4) // 1..8
		w := 64
		if nc < w {
			w = nc
		}
		g := wire.Geometry{NR: nr, NC: nc, W: w, Npre: 1, Nwr: 1, WLSegs: segs}
		if g.Validate() == nil {
			return g, -0.01 * float64(rng.Intn(25))
		}
	}
}

// TestEvalSweepBitIdenticalToEvalInto: the struct-of-arrays row kernel must
// reproduce EvalInto's DArray/EArray/EDP/Area/PADP at the == level for every point of
// full and partial N_wr ranges, across chunk transitions (which invalidate
// the cached SoA lanes) and on Clones (which must not share them).
func TestEvalSweepBitIdenticalToEvalInto(t *testing.T) {
	rng := rand.New(rand.NewSource(20260810))
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}}
	for _, tech := range evaluatorTechs(t) {
		for _, a := range acts {
			proto, err := NewEvaluator(tech, a)
			if err != nil {
				t.Fatal(err)
			}
			ev := proto.Clone()
			var sweep SweepBlock
			var want Result
			for chunkN := 0; chunkN < 30; chunkN++ {
				g, vssc := randomChunk(rng)
				if err := ev.Prepare(g, 0.55, vssc, 0.55); err != nil {
					t.Fatalf("Prepare(%+v): %v", g, err)
				}
				lo := 1 + rng.Intn(3)
				hi := lo + rng.Intn(21-lo)
				for _, npre := range []int{1, 1 + rng.Intn(50)} {
					if err := ev.EvalSweep(npre, lo, hi, &sweep); err != nil {
						t.Fatalf("EvalSweep(%d,%d,%d): %v", npre, lo, hi, err)
					}
					for nwr := lo; nwr <= hi; nwr++ {
						if err := ev.EvalInto(npre, nwr, &want); err != nil {
							t.Fatal(err)
						}
						i := nwr - lo
						if sweep.DArray[i] != want.DArray || sweep.EArray[i] != want.EArray || sweep.EDP[i] != want.EDP ||
							sweep.Area[i] != want.Area || sweep.PADP[i] != want.PADP {
							t.Fatalf("EvalSweep diverges at chunk %+v VSSC=%g N_pre=%d N_wr=%d:\n  got  D=%x E=%x EDP=%x A=%x PADP=%x\n  want D=%x E=%x EDP=%x A=%x PADP=%x",
								g, vssc, npre, nwr,
								sweep.DArray[i], sweep.EArray[i], sweep.EDP[i], sweep.Area[i], sweep.PADP[i],
								want.DArray, want.EArray, want.EDP, want.Area, want.PADP)
						}
					}
				}
			}
		}
	}
}

// TestBoundRectIsLowerBound: for random chunks and random rectangles, the
// bound must not exceed the exact metrics of any point inside the rectangle
// — the soundness property branch-and-bound pruning rests on. Tightness at
// the corner point is also checked loosely (within 1%) so the bound cannot
// silently degenerate to zero.
func TestBoundRectIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(20260811))
	for _, tech := range evaluatorTechs(t) {
		ev, err := NewEvaluator(tech, Activity{Alpha: 0.5, Beta: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for chunkN := 0; chunkN < 30; chunkN++ {
			g, vssc := randomChunk(rng)
			if err := ev.Prepare(g, 0.55, vssc, 0.55); err != nil {
				t.Fatalf("Prepare(%+v): %v", g, err)
			}
			npreLo := 1 + rng.Intn(40)
			npreHi := npreLo + rng.Intn(51-npreLo)
			nwrLo := 1 + rng.Intn(15)
			nwrHi := nwrLo + rng.Intn(21-nwrLo)
			bound, err := ev.BoundRect(npreLo, npreHi, nwrLo, nwrHi)
			if err != nil {
				t.Fatalf("BoundRect: %v", err)
			}
			var r Result
			minEDP := 0.0
			for npre := npreLo; npre <= npreHi; npre++ {
				for nwr := nwrLo; nwr <= nwrHi; nwr++ {
					if err := ev.EvalInto(npre, nwr, &r); err != nil {
						t.Fatal(err)
					}
					if bound.RailsSettleInTime != r.RailsSettleInTime {
						t.Fatalf("bound feasibility %v disagrees with point (%d,%d) %v",
							bound.RailsSettleInTime, npre, nwr, r.RailsSettleInTime)
					}
					if bound.DArray > r.DArray || bound.EArray > r.EArray || bound.EDP > r.EDP {
						t.Fatalf("bound exceeds point (%d,%d) of rect [%d,%d]×[%d,%d] chunk %+v VSSC=%g:\n  bound D=%g E=%g EDP=%g\n  point D=%g E=%g EDP=%g",
							npre, nwr, npreLo, npreHi, nwrLo, nwrHi, g, vssc,
							bound.DArray, bound.EArray, bound.EDP, r.DArray, r.EArray, r.EDP)
					}
					if minEDP == 0 || r.EDP < minEDP {
						minEDP = r.EDP
					}
				}
			}
			if !(bound.EDP > 0) || !(bound.DArray > 0) || !(bound.EArray > 0) {
				t.Errorf("degenerate bound %+v for rect [%d,%d]×[%d,%d] chunk %+v",
					bound, npreLo, npreHi, nwrLo, nwrHi, g)
			}
			// On a 1×1 rectangle every corner coincides with the point, so
			// the bound must be exact up to the one-sided safety slack.
			pb, err := ev.BoundRect(npreLo, npreLo, nwrLo, nwrLo)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.EvalInto(npreLo, nwrLo, &r); err != nil {
				t.Fatal(err)
			}
			if pb.EDP > r.EDP || pb.EDP < r.EDP*(1-1e-9) {
				t.Errorf("1×1 bound EDP %g not tight against exact %g", pb.EDP, r.EDP)
			}
		}
	}
	// Validation.
	ev, err := NewEvaluator(testTech(t), act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.BoundRect(1, 1, 1, 1); err == nil {
		t.Error("BoundRect before Prepare succeeded")
	}
	if err := ev.Prepare(wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 1, Nwr: 1}, 0.55, 0, 0.55); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.BoundRect(2, 1, 1, 1); err == nil {
		t.Error("BoundRect accepted an inverted N_pre range")
	}
	if _, err := ev.BoundRect(1, 1, 0, 1); err == nil {
		t.Error("BoundRect accepted N_wr = 0")
	}
}
