package cell

import (
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/obs"
)

// Write-trip bisection stop rules. Cell.WriteMargin runs a fixed 28
// halvings (interval ~2 nV) because the rail searches built on it pin
// results to a 10 mV grid. The Monte Carlo path only needs the trip well
// below the ΔVt-induced write-margin spread (σ_WM ~ tens of mV), so it stops
// once the wordline interval is writeTripTolV wide — trip error ≤ 0.25 mV —
// and saves ~17 transient probes per sample.
const (
	charTripHalvings = 28
	writeTripTolV    = 0.5e-3
)

// Scratch is the cell evaluator: the Cell margin methods are a fresh Scratch,
// and the Monte Carlo engine keeps one per worker. It builds each netlist
// once and re-solves it under new ΔVt perturbations and rail biases via
// SetFETDVt/SetV, reusing the circuit package's Newton workspaces instead of
// reconstructing circuits, result maps, and waveform records per sample. A
// reused Scratch therefore reports SNMs bit-identical to the Cell methods
// with c.DVt = dvt; its write margin differs only by the trip tolerance
// above.
//
// A Scratch is not safe for concurrent use.
type Scratch struct {
	cell Cell // copy with zeroed DVt; flavor and library are fixed

	vtc   [2]*circuit.Circuit // half-cell VTC netlists, side 0 (left) and 1 (right)
	sweep [2]*circuit.Sweeper

	wr     *circuit.Circuit // full-cell write netlist with storage caps
	wrTran *circuit.TranRunner

	xs, ysA, ysB []float64 // sweep buffers (vtcPoints long)
}

// NewScratch builds the reusable netlists for cells of c's library and
// flavor. Per-sample ΔVt arrives via the method arguments, not c.DVt.
func NewScratch(c *Cell) (*Scratch, error) {
	s := &Scratch{cell: Cell{Lib: c.Lib, Flavor: c.Flavor}}
	for side := 0; side < 2; side++ {
		ckt := circuit.New()
		ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(0))
		ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(0))
		ckt.AddV("vwl", "WL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vbl", "BL", circuit.Ground, circuit.DC(0))
		ckt.AddV("vin", "IN", circuit.Ground, circuit.DC(0))
		s.cell.addHalf(ckt, side, "IN", "OUT", "CVDD", "CVSS", "BL", "WL")
		sw, err := ckt.NewSweeper("vin", "OUT")
		if err != nil {
			return nil, err
		}
		s.vtc[side] = ckt
		s.sweep[side] = sw
	}

	s.wr = s.cell.fullCell(0, 0, 0, 0, 0)
	s.wrTran = s.wr.NewTranRunner()

	s.xs = make([]float64, vtcPoints)
	s.ysA = make([]float64, vtcPoints)
	s.ysB = make([]float64, vtcPoints)
	return s, nil
}

// setHalfDVt loads one side's ΔVt triple into a netlist built by addHalf
// with output node out.
func setHalfDVt(ckt *circuit.Circuit, side int, out string, dvt Variation) {
	base := Transistor(side * 3)
	ckt.SetFETDVt("pu"+out, dvt[base+PUL])
	ckt.SetFETDVt("pd"+out, dvt[base+PDL])
	ckt.SetFETDVt("ax"+out, dvt[base+AXL])
}

// linspaceInto fills dst exactly like num.Linspace(lo, hi, len(dst)).
func linspaceInto(dst []float64, lo, hi float64) {
	n := len(dst)
	step := (hi - lo) / float64(n-1)
	for i := range dst {
		dst[i] = lo + float64(i)*step
	}
	dst[n-1] = hi
}

// halfVTC sweeps the input of one half-cell (inverter + access transistor
// loading) from lo to hi under explicit rail voltages and records the
// output into ys. side selects which physical half (0 = left: output Q;
// 1 = right: output QB) so that per-transistor variation lands on the right
// devices.
func (s *Scratch) halfVTC(side int, dvt Variation, cvdd, cvss, bl, wl, lo, hi float64, ys []float64) (*VTC, error) {
	ckt := s.vtc[side]
	setHalfDVt(ckt, side, "OUT", dvt)
	ckt.SetV("vcvdd", circuit.DC(cvdd))
	ckt.SetV("vcvss", circuit.DC(cvss))
	ckt.SetV("vwl", circuit.DC(wl))
	ckt.SetV("vbl", circuit.DC(bl))
	ckt.SetV("vin", circuit.DC(lo))
	ckt.SetIC("OUT", cvdd)

	mVTCSweeps.Inc()
	linspaceInto(s.xs, lo, hi)
	if err := s.sweep[side].Sweep(s.xs, ys); err != nil {
		return nil, fmt.Errorf("cell: VTC sweep (side %d): %w", side, err)
	}
	return &VTC{X: s.xs, Y: ys}, nil
}

// butterfly builds the butterfly under explicit rails. Branch A aliases the
// scratch sweep buffers until the next call; the flip of side B allocates
// its own storage.
func (s *Scratch) butterfly(dvt Variation, cvdd, cvss, bl, wl, lo, hi float64) (*Butterfly, error) {
	a, err := s.halfVTC(0, dvt, cvdd, cvss, bl, wl, lo, hi, s.ysA)
	if err != nil {
		return nil, err
	}
	bRaw, err := s.halfVTC(1, dvt, cvdd, cvss, bl, wl, lo, hi, s.ysB)
	if err != nil {
		return nil, err
	}
	return &Butterfly{A: a, B: bRaw.flip()}, nil
}

// holdButterfly builds the butterfly of the cell in hold (WL = 0, rails
// nominal, BLs precharged to vdd).
func (s *Scratch) holdButterfly(dvt Variation, vdd float64) (*Butterfly, error) {
	return s.butterfly(dvt, vdd, 0, vdd, 0, 0, vdd)
}

// readButterfly builds the butterfly during a read access: both access
// transistors on at VWL, both bitlines clamped at Vdd, rails at VDDC/VSSC.
func (s *Scratch) readButterfly(dvt Variation, b ReadBias) (*Butterfly, error) {
	lo, hi := math.Min(b.VSSC, 0), math.Max(b.VDDC, b.Vdd)
	return s.butterfly(dvt, b.VDDC, b.VSSC, b.Vdd, b.VWL, lo, hi)
}

// extractSNM extracts the SNM of a butterfly built under span sp and ends
// the span, also when building or extracting failed.
func extractSNM(sp *obs.Span, bf *Butterfly, err error) (float64, error) {
	var v float64
	if err == nil {
		v, err = bf.SNM()
	}
	if err == nil {
		sp.Float("snm", v)
	}
	endSpan(sp, err)
	return v, err
}

// HoldSNM returns the hold static noise margin of the perturbed cell.
func (s *Scratch) HoldSNM(dvt Variation, vdd float64) (float64, error) {
	sp := obs.StartSpan("cell.hold_snm")
	mSNMExtractions.Inc()
	bf, err := s.holdButterfly(dvt, vdd)
	return extractSNM(&sp, bf, err)
}

// ReadSNM returns the read static noise margin of the perturbed cell under
// bias b.
func (s *Scratch) ReadSNM(dvt Variation, b ReadBias) (float64, error) {
	sp := obs.StartSpan("cell.read_snm")
	mSNMExtractions.Inc()
	sp.Float("vddc", b.VDDC)
	sp.Float("vssc", b.VSSC)
	bf, err := s.readButterfly(dvt, b)
	return extractSNM(&sp, bf, err)
}

// WriteMargin returns the write margin of the perturbed cell under bias b,
// bisecting the trip point down to writeTripTolV (see Cell.WriteMargin).
func (s *Scratch) WriteMargin(dvt Variation, b WriteBias) (float64, error) {
	return s.writeMargin(dvt, b, math.MaxInt, writeTripTolV)
}

// writeMargin returns VWL minus the minimum wordline voltage that flips a
// cell holding '1' on Q when BL is driven to b.VBL (writing a '0'). The trip
// point is bisected on [0, VWL] until the interval has been halved
// maxHalvings times or is no wider than tol. It returns ErrWriteFail when
// the cell does not flip at full VWL.
//
// Flip detection is transient (dynamic): the DC problem is singular exactly
// at the trip fold, so each probe applies the wordline level to the cell
// with its storage nodes loaded by their physical capacitances and checks
// whether the state flips within a generous settling window.
func (s *Scratch) writeMargin(dvt Variation, b WriteBias, maxHalvings int, tol float64) (float64, error) {
	sp := obs.StartSpan("cell.write_trip")
	mWriteTrips.Inc()
	trip, probes, err := s.writeTrip(dvt, b, maxHalvings, tol)
	sp.Int("probes", int64(probes))
	if err == nil {
		sp.Float("trip", trip)
	}
	endSpan(&sp, err)
	if err != nil {
		return 0, err
	}
	return b.VWL - trip, nil
}

// writeTrip is writeMargin's bisection; it also reports the probe count.
func (s *Scratch) writeTrip(dvt Variation, b WriteBias, maxHalvings int, tol float64) (trip float64, probes int, err error) {
	wr := s.wr
	setHalfDVt(wr, 0, "Q", dvt)
	setHalfDVt(wr, 1, "QB", dvt)
	wr.SetV("vcvdd", circuit.DC(b.Vdd))
	wr.SetV("vcvss", circuit.DC(0))
	wr.SetV("vbl", circuit.DC(b.VBL))
	wr.SetV("vblb", circuit.DC(b.Vdd))
	wr.SetIC("Q", b.Vdd)
	wr.SetIC("QB", 0)
	flips := func(vwl float64) (bool, error) {
		probes++
		mWriteProbes.Inc()
		wr.SetV("vwl", circuit.DC(vwl))
		if err := s.wrTran.Run(circuit.TranOpts{TStop: 300e-12, DT: 0.5e-12, UIC: true}); err != nil {
			return false, fmt.Errorf("cell: write trip at WL=%g: %w", vwl, err)
		}
		return s.wrTran.FinalV("Q") < s.wrTran.FinalV("QB"), nil
	}

	lo, hi := 0.0, b.VWL
	if fl, err := flips(lo); err != nil || fl {
		return 0, probes, err // flipping even with WL off is degenerate: trip = 0
	}
	if fh, err := flips(hi); err != nil {
		return 0, probes, err
	} else if !fh {
		return 0, probes, fmt.Errorf("cell: write fails even at WL=%gV: %w", hi, ErrWriteFail)
	}
	for n := 0; n < maxHalvings && hi-lo > tol; n++ {
		mid := 0.5 * (lo + hi)
		fm, err := flips(mid)
		if err != nil {
			return 0, probes, err
		}
		if fm {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), probes, nil
}
