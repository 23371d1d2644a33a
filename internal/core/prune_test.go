package core

import (
	"reflect"
	"testing"

	"sramco/internal/device"
)

// TestBranchAndBoundParity is the correctness gate of the branch-and-bound
// tentpole: across the standard capacity grid, both flavors and both rail
// methods, the pruned search must return the exact DesignPoint — design and
// every Result field bit-identical — that full enumeration
// (Options.DisableBounds) finds, while satisfying the accounting invariant
//
//	Evaluated + SkippedRSNM + PrunedBound == levels × validCombosPerLevel.
func TestBranchAndBoundParity(t *testing.T) {
	f := paperFramework(t)
	for _, kb := range []int{1, 2, 4, 8, 16} {
		for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
			for _, method := range []Method{M1, M2} {
				opts := Options{CapacityBits: kb * 1024 * 8, Flavor: flavor, Method: method}
				pruned, err := f.Optimize(opts)
				if err != nil {
					t.Fatalf("%dKB %v %v pruned: %v", kb, flavor, method, err)
				}
				full := opts
				full.DisableBounds = true
				ref, err := f.Optimize(full)
				if err != nil {
					t.Fatalf("%dKB %v %v full: %v", kb, flavor, method, err)
				}
				if !reflect.DeepEqual(pruned.Best, ref.Best) {
					t.Errorf("%dKB %v %v: pruned optimum diverges from full enumeration:\npruned %+v\nfull   %+v",
						kb, flavor, method, pruned.Best, ref.Best)
				}

				normOpts := opts
				if err := normOpts.normalize(); err != nil {
					t.Fatal(err)
				}
				rows := rowCandidates(normOpts.CapacityBits, normOpts.Space)
				levels := len(vsscCandidates(normOpts.Method, normOpts.Space))
				valid := validCombosPerLevel(&normOpts, rows)
				st := pruned.Stats
				if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, levels*valid; got != want {
					t.Errorf("%dKB %v %v: Evaluated (%d) + SkippedRSNM (%d) + PrunedBound (%d) = %d, want %d",
						kb, flavor, method, st.Evaluated, st.SkippedRSNM, st.PrunedBound, got, want)
				}
				if st.PrunedBound == 0 {
					t.Errorf("%dKB %v %v: bound pruned nothing", kb, flavor, method)
				}
				// Rail-infeasible rectangles are pruned before evaluation in
				// the bounded search; SkippedRails counts evaluated points
				// only and must stay zero.
				if st.SkippedRails != 0 {
					t.Errorf("%dKB %v %v: bounded search evaluated %d rail-infeasible points",
						kb, flavor, method, st.SkippedRails)
				}
				// Full enumeration must not have pruned anything.
				if ref.Stats.PrunedBound != 0 {
					t.Errorf("%dKB %v %v: DisableBounds still pruned %d points",
						kb, flavor, method, ref.Stats.PrunedBound)
				}
			}
		}
	}
}

// TestBranchAndBoundParityPareto extends the parity gate to the frontier
// search: the bounded sweep must return a bit-identical Pareto front —
// same points in the same order, every metric equal — as full enumeration.
func TestBranchAndBoundParityPareto(t *testing.T) {
	f := paperFramework(t)
	for _, tc := range []struct {
		kb     int
		flavor device.Flavor
		method Method
	}{
		{4, device.HVT, M2},
		{16, device.LVT, M1},
		{8, device.HVT, M1},
	} {
		opts := Options{CapacityBits: tc.kb * 1024 * 8, Flavor: tc.flavor, Method: tc.method}
		pruned, err := f.ParetoSearch(opts)
		if err != nil {
			t.Fatalf("%dKB %v %v pruned: %v", tc.kb, tc.flavor, tc.method, err)
		}
		full := opts
		full.DisableBounds = true
		ref, err := f.ParetoSearch(full)
		if err != nil {
			t.Fatalf("%dKB %v %v full: %v", tc.kb, tc.flavor, tc.method, err)
		}
		if len(pruned.Front) != len(ref.Front) {
			t.Fatalf("%dKB %v %v: pruned front has %d points, full %d",
				tc.kb, tc.flavor, tc.method, len(pruned.Front), len(ref.Front))
		}
		for i := range pruned.Front {
			if !reflect.DeepEqual(pruned.Front[i], ref.Front[i]) {
				t.Errorf("%dKB %v %v: frontier point %d diverges:\npruned %+v\nfull   %+v",
					tc.kb, tc.flavor, tc.method, i, pruned.Front[i], ref.Front[i])
			}
		}
		st := pruned.Stats
		if got, want := st.Evaluated+st.SkippedRSNM+st.PrunedBound, ref.Stats.Evaluated+ref.Stats.SkippedRSNM; got != want {
			t.Errorf("%dKB %v %v: bounded space (%d) does not reconcile with full enumeration (%d)",
				tc.kb, tc.flavor, tc.method, got, want)
		}
	}
}

// TestBranchAndBoundParityInfeasible pins the failure-path parity: when every
// candidate is rejected, the bounded and full searches must both surface
// ErrInfeasible — the seedless bounded path must not invent an optimum or
// mask the error.
func TestBranchAndBoundParityInfeasible(t *testing.T) {
	f := pruningFramework(t, 1) // every VSSC level fails read stability
	opts := Options{
		CapacityBits: 4096,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        SearchSpace{VSSCMin: -0.03, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 2, NwrMax: 2},
	}
	if _, err := f.Optimize(opts); err == nil {
		t.Fatal("pruned search of an infeasible space succeeded")
	}
	full := opts
	full.DisableBounds = true
	if _, err := f.Optimize(full); err == nil {
		t.Fatal("full search of an infeasible space succeeded")
	}
}
