package cell

import (
	"errors"
	"fmt"
	"math"

	"sramco/internal/circuit"
	"sramco/internal/obs"
)

// ErrWriteFail reports that the cell does not flip even with the wordline at
// the full applied bias — the write margin is ≤ 0. It is a legitimate
// characterization outcome (a failing Monte Carlo sample, an infeasible
// assist level), not a solver failure; callers distinguish it from
// infrastructure errors with errors.Is.
var ErrWriteFail = errors.New("write margin ≤ 0")

// WriteMargin returns the write margin under bias b: the applied wordline
// voltage minus the minimum wordline voltage needed to flip the cell
// (paper §3.2; at VWL = Vdd this is exactly the paper's WM definition). The
// trip point is bisected with a fixed 28 halvings.
func (c *Cell) WriteMargin(b WriteBias) (float64, error) {
	s, err := NewScratch(c)
	if err != nil {
		return 0, err
	}
	return s.writeMargin(c.DVt, b, charStop)
}

// WriteDelay returns the cell-level write delay (s): the time from the
// wordline reaching 50 % of Vdd until Q and QB cross, writing a '0' over a
// stored '1' (paper §3.2 definition; ≈1.5 ps for 6T-HVT with no assist).
// The transient stops right after the Q/QB crossing (DESIGN.md §6).
func (c *Cell) WriteDelay(b WriteBias) (float64, error) {
	ckt, opts, read := c.writeDelayBench(b)
	d, err := ckt.Measure(opts, read)
	if err != nil {
		return 0, fmt.Errorf("cell: write delay: %w", err)
	}
	return d, nil
}

// writeDelayBench builds the write-delay testbench over a 60 ps window; its
// reader takes the WL 50 % edge, then Q dropping below QB.
func (c *Cell) writeDelayBench(b WriteBias) (*circuit.Circuit, circuit.TranOpts, func(*circuit.TranResult) (float64, error)) {
	const (
		tStart = 2e-12  // WL step start
		tRise  = 1e-12  // WL rise time
		tStop  = 60e-12 // simulation window
		dt     = 0.05e-12
	)
	ckt := c.fullCell(b.Vdd, 0, 0, b.VBL, b.Vdd)
	ckt.SetV("vwl", circuit.Step(0, b.VWL, tStart, tRise))
	ckt.SetIC("Q", b.Vdd)
	ckt.SetIC("QB", 0)
	read := func(res *circuit.TranResult) (float64, error) {
		tWL, err := res.CrossTime("WL", 0.5*b.Vdd, circuit.RisingEdge, 0)
		if err != nil {
			return 0, err
		}
		tCross, err := res.CrossBelow("Q", "QB", tWL)
		if err != nil {
			return 0, err
		}
		return tCross - tWL, nil
	}
	return ckt, circuit.TranOpts{TStop: tStop, DT: dt}, read
}

// MinVDDCForReadSNM returns the smallest VDDC (searched on a 10 mV grid like
// the paper's rail granularity) at which the read SNM meets target, with the
// other read-bias fields taken from b. It returns an error if even vMax
// fails. One Scratch serves every probe of the search.
func (c *Cell) MinVDDCForReadSNM(b ReadBias, target, vMax float64) (float64, error) {
	s, err := NewScratch(c)
	if err != nil {
		return 0, err
	}
	meets := func(vddc float64) (bool, error) {
		bb := b
		bb.VDDC = vddc
		snm, err := s.ReadSNM(c.DVt, bb)
		if err != nil {
			return false, err
		}
		return snm >= target, nil
	}
	return minRailSearch(meets, b.Vdd, vMax, "VDDC")
}

// MinVWLForWriteMargin returns the smallest write-assist VWL (10 mV grid) at
// which the write margin meets target. Each probe bisects the trip only
// until WriteMargin(b) >= target is decided, on one Scratch for the search.
func (c *Cell) MinVWLForWriteMargin(b WriteBias, target, vMax float64) (float64, error) {
	s, err := NewScratch(c)
	if err != nil {
		return 0, err
	}
	meets := func(vwl float64) (bool, error) {
		bb := b
		bb.VWL = vwl
		return s.meetsWriteMargin(c.DVt, bb, target)
	}
	return minRailSearch(meets, b.Vdd, vMax, "VWL")
}

// minRailSearch finds the smallest voltage on a 10 mV grid in [vMin, vMax]
// satisfying a monotone predicate.
func minRailSearch(meetsRaw func(float64) (bool, error), vMin, vMax float64, what string) (float64, error) {
	sp := obs.StartSpan("cell.rail_search")
	probes := 0
	meets := func(v float64) (bool, error) {
		probes++
		mRailProbes.Inc()
		return meetsRaw(v)
	}
	const grid = 0.010
	n := int((vMax-vMin)/grid + 0.5)
	lo, hi := 0, n // grid indices; predicate assumed false below lo-1... binary search
	ok, err := meets(vMax)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("cell: %s search: target unmet even at %gV", what, vMax)
	}
	if ok0, err := meets(vMin); err != nil {
		return 0, err
	} else if ok0 {
		sp.Str("rail", what)
		sp.Int("probes", int64(probes))
		sp.Float("v", vMin)
		sp.End()
		return vMin, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		v := vMin + float64(mid)*grid
		ok, err := meets(v)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	v := vMin + float64(hi)*grid
	sp.Str("rail", what)
	sp.Int("probes", int64(probes))
	sp.Float("v", v)
	sp.End()
	return v, nil
}

// ReadCurrentFit fits the paper's analytical read-current law
// I_read = b·(V_DDC − V_SSC − V_t)^a to simulated read currents over a range
// of VSSC values by log-log least squares, given the device threshold vt.
// It returns (a, b).
func (c *Cell) ReadCurrentFit(rb ReadBias, vsscs []float64, vt float64) (a, bCoef float64, err error) {
	var xs, ys []float64
	for _, vssc := range vsscs {
		bb := rb
		bb.VSSC = vssc
		i, err := c.ReadCurrent(bb)
		if err != nil {
			return 0, 0, err
		}
		drive := bb.VDDC - vssc - vt
		if drive <= 0 || i <= 0 {
			continue
		}
		xs = append(xs, drive)
		ys = append(ys, i)
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("cell: read-current fit needs ≥2 usable points, got %d", len(xs))
	}
	// Linear regression of ln(i) on ln(drive).
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for k := range xs {
		lx, ly := math.Log(xs[k]), math.Log(ys[k])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	a = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	lnB := (sy - a*sx) / n
	return a, math.Exp(lnB), nil
}
