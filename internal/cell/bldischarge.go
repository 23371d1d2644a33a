package cell

import (
	"fmt"

	"sramco/internal/circuit"
)

// BLDischargeDelay simulates the read bitline discharge end to end: the
// bitline is a real capacitor cBL precharged to Vdd, the wordline steps on,
// and the accessed cell sinks charge until the bitline has fallen by
// deltaV (the sense threshold). This is the transient ground truth for the
// paper's Eq. (1) estimate D = C_BL·ΔV_S/I_read, which evaluates the read
// current at the initial bias only.
func (c *Cell) BLDischargeDelay(b ReadBias, cBL, deltaV float64) (float64, error) {
	if cBL <= 0 || deltaV <= 0 || deltaV >= b.Vdd {
		return 0, fmt.Errorf("cell: invalid BL discharge setup cBL=%g ΔV=%g", cBL, deltaV)
	}
	const (
		tWL  = 2e-12
		rise = 1e-12
	)
	ckt := circuit.New()
	ckt.AddV("vcvdd", "CVDD", circuit.Ground, circuit.DC(b.VDDC))
	ckt.AddV("vcvss", "CVSS", circuit.Ground, circuit.DC(b.VSSC))
	ckt.AddV("vwl", "WL", circuit.Ground, circuit.Step(0, b.VWL, tWL, rise))
	ckt.AddV("vblb", "BLB", circuit.Ground, circuit.DC(b.Vdd))
	// The bitline floats on its capacitance, precharged to Vdd.
	ckt.AddC("cbl", "BL", circuit.Ground, cBL)
	c.addCell(ckt)
	ckt.SetIC("Q", b.VSSC)
	ckt.SetIC("QB", b.VDDC)
	ckt.SetIC("BL", b.Vdd)

	// Budget the window from the analytical estimate, with ample slack.
	iRead, err := c.ReadCurrent(b)
	if err != nil {
		return 0, err
	}
	est := cBL * deltaV / iRead
	tStop := tWL + 6*est
	res, err := ckt.Transient(circuit.TranOpts{TStop: tStop, DT: tStop / 3000, UIC: true})
	if err != nil {
		return 0, fmt.Errorf("cell: BL discharge transient: %w", err)
	}
	tHalfWL, err := res.CrossTime("WL", 0.5*b.Vdd, circuit.RisingEdge, 0)
	if err != nil {
		return 0, err
	}
	tSense, err := res.CrossTime("BL", b.Vdd-deltaV, circuit.FallingEdge, tHalfWL)
	if err != nil {
		return 0, fmt.Errorf("cell: bitline never reached the sense threshold: %w", err)
	}
	return tSense - tHalfWL, nil
}
