package array

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sramco/internal/wire"
)

// lvtLikeIRead emulates the stronger low-Vt flavor: same functional form as
// the paper's fitted HVT law with a lower threshold and higher drive.
func lvtLikeIRead(vddc, vssc float64) float64 {
	return 2.0e-4 * math.Pow(vddc-vssc-0.280, 1.25)
}

// evaluatorTechs builds the four (accounting × flavor) technology variants
// the bit-identity property must span.
func evaluatorTechs(t testing.TB) []*Tech {
	t.Helper()
	base := testTech(t) // HVT-law, AllColumns
	hvtWC := *base
	hvtWC.Accounting = WorstCasePath
	lvtAC := *base
	lvtAC.IRead = lvtLikeIRead
	lvtAC.LeakCell = 1.692e-9
	lvtAC.WriteDelayCell = func(vwl float64) float64 { return 1.5e-12 * 0.55 / vwl }
	lvtWC := lvtAC
	lvtWC.Accounting = WorstCasePath
	return []*Tech{base, &hvtWC, &lvtAC, &lvtWC}
}

// TestEvaluatorBitIdenticalToEvaluate is the contract test of the evaluation
// engine: over a randomized sample of designs spanning flat and divided
// wordlines, both energy accountings and both flavors, Evaluator.Eval must
// reproduce array.Evaluate field for field at the == level (reflect.DeepEqual
// on the Result structs — no tolerance). A single Evaluator per (tech,
// activity) is reused across the whole sample, so Prepare's memoization and
// chunk transitions are exercised, and each design is additionally evaluated
// at a neighbor point of the same chunk to hit the memo fast path.
func TestEvaluatorBitIdenticalToEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	acts := []Activity{{Alpha: 0.5, Beta: 0.5}, {Alpha: 0.31, Beta: 0.82}}
	for _, tech := range evaluatorTechs(t) {
		for _, a := range acts {
			ev, err := NewEvaluator(tech, a)
			if err != nil {
				t.Fatalf("NewEvaluator: %v", err)
			}
			checked := 0
			for checked < 200 {
				nr := 2 << rng.Intn(10)  // 2..1024
				nc := 1 << rng.Intn(11)  // 1..1024
				segs := 1 << rng.Intn(4) // 1..8
				w := 64
				if nc < w {
					w = nc
				}
				d := Design{
					Geom: wire.Geometry{
						NR: nr, NC: nc, W: w,
						Npre: 1 + rng.Intn(50), Nwr: 1 + rng.Intn(20),
						WLSegs: segs,
					},
					VDDC: 0.55, VSSC: -0.01 * float64(rng.Intn(25)), VWL: 0.55,
				}
				if d.Geom.Validate() != nil {
					continue
				}
				checked++
				want, err := Evaluate(tech, d, a)
				if err != nil {
					t.Fatalf("Evaluate(%+v): %v", d, err)
				}
				if err := ev.Prepare(d.Geom, d.VDDC, d.VSSC, d.VWL); err != nil {
					t.Fatalf("Prepare(%+v): %v", d, err)
				}
				got, err := ev.Eval(d.Geom.Npre, d.Geom.Nwr)
				if err != nil {
					t.Fatalf("Eval(%+v): %v", d, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("Evaluator diverges from Evaluate at %+v:\n  want %+v\n  got  %+v", d, want, got)
				}
				// A neighbor inside the same chunk: Prepare memo-hits, the
				// per-point terms are recomputed from the cached invariants.
				n := d
				n.Geom.Npre = 1 + d.Geom.Npre%50
				n.Geom.Nwr = 1 + d.Geom.Nwr%20
				want2, err := Evaluate(tech, n, a)
				if err != nil {
					t.Fatalf("Evaluate(%+v): %v", n, err)
				}
				if err := ev.Prepare(n.Geom, n.VDDC, n.VSSC, n.VWL); err != nil {
					t.Fatalf("Prepare memo(%+v): %v", n, err)
				}
				got2, err := ev.Eval(n.Geom.Npre, n.Geom.Nwr)
				if err != nil {
					t.Fatalf("Eval(%+v): %v", n, err)
				}
				if !reflect.DeepEqual(want2, got2) {
					t.Fatalf("memoized Evaluator diverges at %+v:\n  want %+v\n  got  %+v", n, want2, got2)
				}
			}
		}
	}
}

// TestEvaluatorEvalIntoMatchesEval proves the allocation-free form fills the
// caller's Result identically to Eval.
func TestEvaluatorEvalIntoMatchesEval(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.55, -0.1, 0.55); err != nil {
		t.Fatal(err)
	}
	want, err := ev.Eval(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	got.EDP = math.NaN() // stale garbage EvalInto must fully overwrite
	if err := ev.EvalInto(7, 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*want, got) {
		t.Fatalf("EvalInto diverges from Eval:\n  want %+v\n  got  %+v", *want, got)
	}
}

// TestEvaluatorErrors covers the guard paths: unprepared Eval, invalid fin
// counts, invalid rails and geometry in Prepare, zero Evaluator, and a
// non-positive read current.
func TestEvaluatorErrors(t *testing.T) {
	tech := testTech(t)
	ev, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(1, 1); err == nil {
		t.Error("Eval before Prepare accepted")
	}
	g := wire.Geometry{NR: 128, NC: 64, W: 64, Npre: 1, Nwr: 1}
	if err := ev.Prepare(g, 0.40, 0, 0.55); err == nil {
		t.Error("VDDC below Vdd accepted")
	}
	if err := ev.Prepare(g, 0.55, 0.05, 0.55); err == nil {
		t.Error("positive VSSC accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.40); err == nil {
		t.Error("VWL below Vdd accepted")
	}
	bad := g
	bad.NR = 3
	if err := ev.Prepare(bad, 0.55, 0, 0.55); err == nil {
		t.Error("invalid geometry accepted")
	}
	if err := ev.Prepare(g, 0.55, 0, 0.55); err != nil {
		t.Fatalf("valid Prepare after failures: %v", err)
	}
	if _, err := ev.Eval(0, 1); err == nil {
		t.Error("N_pre = 0 accepted")
	}
	if _, err := ev.Eval(1, 0); err == nil {
		t.Error("N_wr = 0 accepted")
	}
	if _, err := NewEvaluator(tech, Activity{Alpha: 2}); err == nil {
		t.Error("invalid activity accepted")
	}
	badTech := *tech
	badTech.IRead = nil
	if _, err := NewEvaluator(&badTech, act); err == nil {
		t.Error("invalid tech accepted")
	}
	var zero Evaluator
	if err := zero.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero Evaluator accepted Prepare")
	}
	zeroI := *tech
	zeroI.IRead = func(a, b float64) float64 { return 0 }
	ev2, err := NewEvaluator(&zeroI, act)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Prepare(g, 0.55, 0, 0.55); err == nil {
		t.Error("zero read current accepted")
	}
	if _, err := ev2.Eval(1, 1); err == nil {
		t.Error("Eval after failed Prepare accepted")
	}
}

// TestEvaluatorClonesShareTechConcurrently mirrors the sharded search's use
// of the engine: one validated Evaluator, one clone per worker, all sharing
// the read-only *Tech while preparing different chunks concurrently. Run
// under -race (the Makefile check gate) this proves the sharing is sound.
func TestEvaluatorClonesShareTechConcurrently(t *testing.T) {
	tech := testTech(t)
	proto, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Evaluate(tech, design(512, 64, 5, 2, 0.55, -0.12, 0.55), act)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ev := proto.Clone()
			vssc := -0.01 * float64(worker)
			for nr := 2; nr <= 1024; nr *= 2 {
				g := wire.Geometry{NR: nr, NC: 64, W: 64, Npre: 1, Nwr: 1}
				if err := ev.Prepare(g, 0.55, vssc, 0.55); err != nil {
					errs <- err
					return
				}
				var r Result
				for npre := 1; npre <= 8; npre++ {
					for nwr := 1; nwr <= 4; nwr++ {
						if err := ev.EvalInto(npre, nwr, &r); err != nil {
							errs <- err
							return
						}
					}
				}
			}
			// One worker re-derives the reference point on its clone.
			if worker == 5 {
				g := wire.Geometry{NR: 512, NC: 64, W: 64}
				if err := ev.Prepare(g, 0.55, -0.12, 0.55); err != nil {
					errs <- err
					return
				}
				got, err := ev.Eval(5, 2)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(ref, got) {
					t.Errorf("concurrent clone diverges from Evaluate")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// probeUnit is one (geometry base, rails, group assignment) unit the way a
// search prepares it: h.Groups == 0 selects the plain Prepare, anything else
// PrepareHybrid (Groups 1 is its degenerate global-flavor form).
type probeUnit struct {
	g               wire.Geometry
	vddc, vssc, vwl float64
	h               Hybrid
	alt             int // index of h.Alt in the alternates drawUnit chose from
}

func (u *probeUnit) prepare(e *Evaluator) error {
	if u.h.Groups == 0 {
		return e.Prepare(u.g, u.vddc, u.vssc, u.vwl)
	}
	return e.PrepareHybrid(u.g, u.vddc, u.vssc, u.vwl, u.h)
}

// lvtLikeAlt is a second alternate flavor, distinct from altTerms in every
// field, so a memo that wrongly outlived a change of Hybrid.Alt shows.
func lvtLikeAlt() FlavorTerms {
	return FlavorTerms{
		LeakCell:        1.692e-9,
		IRead:           lvtLikeIRead,
		WriteDelayCell:  func(vwl float64) float64 { return 1.5e-12 * 0.55 / vwl },
		WriteEnergyCell: 6e-18,
	}
}

// drawUnit draws a structurally valid unit. Rails come from small pools so
// memo keys repeat the way they do across one search, with an occasional
// fresh value; hybrid units pick their alternate flavor from alts.
func drawUnit(rng *rand.Rand, alts []FlavorTerms) probeUnit {
	g, vssc := randomChunk(rng)
	if m := 2 << rng.Intn(3); m <= g.W && rng.Intn(2) == 0 {
		g.Mux = m
	}
	pick := func(pool ...float64) float64 {
		if rng.Intn(8) == 0 {
			return pool[0] + 0.2*rng.Float64()
		}
		return pool[rng.Intn(len(pool))]
	}
	u := probeUnit{g: g, vddc: pick(0.55, 0.58, 0.6125), vssc: vssc, vwl: pick(0.55, 0.6, 0.65)}
	u.alt = rng.Intn(len(alts))
	switch groups := []int{0, 1, 2, 4, 8}[rng.Intn(5)]; {
	case groups == 1:
		u.h = Hybrid{Groups: 1, Alt: alts[u.alt]}
	case groups > 1 && g.NR%groups == 0:
		u.h = Hybrid{Groups: groups, Mask: uint32(rng.Intn(1 << groups)), Alt: alts[u.alt]}
	}
	return u
}

// TestEvaluatorReuseBitIdenticalToFresh guards the memo tables against stale
// state: one Evaluator per technology is driven through a seeded,
// interleaved sequence of Prepare and PrepareHybrid calls over varying
// geometries, rails, group counts, masks and two different alternate
// flavors, and after every prepare its EvalInto, EvalSweep and BoundRect
// must equal (reflect.DeepEqual) those of a fresh Evaluator prepared the
// same way. Like a search worker, the reused Evaluator gets the alternates
// through FlavorTerms.Memoized; the fresh one gets them raw. Halfway
// through, the reused Evaluator is replaced by its Clone, which must start
// from empty memo tables.
func TestEvaluatorReuseBitIdenticalToFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	alts := []FlavorTerms{altTerms(), lvtLikeAlt()}
	memoAlts := []FlavorTerms{alts[0].Memoized(), alts[1].Memoized()}
	const steps = 400
	for ti, tech := range evaluatorTechs(t) {
		ev, err := NewEvaluator(tech, act)
		if err != nil {
			t.Fatal(err)
		}
		var prev probeUnit
		var sweepR, sweepF SweepBlock
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				ev = ev.Clone()
			}
			u := drawUnit(rng, alts)
			if step > 0 && rng.Intn(8) == 0 {
				u = prev // same chunk again: the Prepare fast path
			}
			prev = u
			fresh, err := NewEvaluator(tech, act)
			if err != nil {
				t.Fatal(err)
			}
			uR := u
			if uR.h.Groups > 0 {
				uR.h.Alt = memoAlts[u.alt]
			}
			errR, errF := uR.prepare(ev), u.prepare(fresh)
			if (errR == nil) != (errF == nil) || (errR != nil && errR.Error() != errF.Error()) {
				t.Fatalf("tech %d step %d %+v: reused prepare err %v, fresh %v", ti, step, u, errR, errF)
			}
			if errR != nil {
				continue
			}
			npre, nwr := 1+rng.Intn(50), 1+rng.Intn(20)
			var r, f Result
			if err := ev.EvalInto(npre, nwr, &r); err != nil {
				t.Fatal(err)
			}
			if err := fresh.EvalInto(npre, nwr, &f); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r, f) {
				t.Fatalf("tech %d step %d %+v: reused EvalInto(%d,%d) diverges:\n  reused %+v\n  fresh  %+v", ti, step, u, npre, nwr, r, f)
			}
			lo := 1 + rng.Intn(20)
			hi := lo + rng.Intn(21-lo)
			if err := ev.EvalSweep(npre, lo, hi, &sweepR); err != nil {
				t.Fatal(err)
			}
			if err := fresh.EvalSweep(npre, lo, hi, &sweepF); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sweepR, sweepF) {
				t.Fatalf("tech %d step %d %+v: reused EvalSweep(%d,%d,%d) diverges", ti, step, u, npre, lo, hi)
			}
			br, err := ev.BoundRect(1, npre, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			bf, err := fresh.BoundRect(1, npre, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(br, bf) {
				t.Fatalf("tech %d step %d %+v: reused BoundRect diverges:\n  reused %+v\n  fresh  %+v", ti, step, u, br, bf)
			}
		}
	}
}

// TestEvaluatorCloneOfUsedSharesNoMemo clones an Evaluator whose memo tables
// are already populated and prepares the clones concurrently on new rails.
// Clones must start from empty tables of their own: under -race (the
// Makefile check gate) a shared table is a reported data race.
func TestEvaluatorCloneOfUsedSharesNoMemo(t *testing.T) {
	tech := testTech(t)
	used, err := NewEvaluator(tech, act)
	if err != nil {
		t.Fatal(err)
	}
	g := wire.Geometry{NR: 256, NC: 128, W: 64, Npre: 1, Nwr: 1, WLSegs: 2}
	if err := used.Prepare(g, 0.55, -0.05, 0.6); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Result, 4)
	errs := make([]error, 4)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := used.Clone()
			vssc := -0.01 * float64(w+1)
			for nr := 64; nr <= 512; nr *= 2 {
				gw := g
				gw.NR = nr
				if errs[w] = ev.Prepare(gw, 0.55+0.01*float64(w), vssc, 0.6); errs[w] != nil {
					return
				}
			}
			got[w], errs[w] = ev.Eval(3, 2)
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		d := Design{Geom: g, VDDC: 0.55 + 0.01*float64(w), VSSC: -0.01 * float64(w+1), VWL: 0.6}
		d.Geom.NR, d.Geom.Npre, d.Geom.Nwr = 512, 3, 2
		want, err := Evaluate(tech, d, act)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got[w]) {
			t.Errorf("clone %d diverges from Evaluate", w)
		}
	}
}
