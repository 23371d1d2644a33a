package cell

import (
	"fmt"
	"math"

	"sramco/internal/num"
)

// vtcPoints is the sweep resolution used for butterfly curves.
const vtcPoints = 181

// VTC is a sampled voltage transfer curve y(x), monotone nonincreasing.
type VTC struct {
	X, Y []float64
}

// interp returns a linear interpolant over the curve (clamping at the ends
// via flat extension, achieved by evaluating within the hull only).
func (v *VTC) interp() (num.Interp1D, error) { return num.NewLinear1D(v.X, v.Y) }

// flip mirrors a VTC across the diagonal: the curve x = f(y) becomes
// y = f⁻¹(x), resampled with strictly increasing x.
func (v *VTC) flip() *VTC {
	n := len(v.X)
	fx := make([]float64, 0, n)
	fy := make([]float64, 0, n)
	// Walking the original curve from last to first sample yields ascending
	// x (= original y) because the VTC is nonincreasing.
	for i := n - 1; i >= 0; i-- {
		x, y := v.Y[i], v.X[i]
		if len(fx) > 0 && x <= fx[len(fx)-1]+1e-9 {
			continue // drop duplicates from rail-flat segments
		}
		fx = append(fx, x)
		fy = append(fy, y)
	}
	return &VTC{X: fx, Y: fy}
}

// Butterfly holds the two butterfly branches in a common (x, y) plane:
// A is the left half-cell VTC y = f(x); B is the mirrored right half-cell
// VTC y = g⁻¹(x).
type Butterfly struct {
	A, B *VTC
}

// SNM returns the static noise margin: the side of the largest square that
// fits inside each butterfly lobe, minimized over the two lobes (Seevinck).
// A non-bistable butterfly (fewer than two lobes) yields 0.
func (b *Butterfly) SNM() (float64, error) {
	fa, err := b.A.interp()
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch A: %w", err)
	}
	fb, err := b.B.interp()
	if err != nil {
		return 0, fmt.Errorf("cell: butterfly branch B: %w", err)
	}
	lobe1 := maxSquare(fa, fb, b.A.X[0], b.A.X[len(b.A.X)-1])
	lobe2 := maxSquare(fb, fa, b.B.X[0], b.B.X[len(b.B.X)-1])
	return math.Min(lobe1, lobe2), nil
}

// maxSquare returns the side of the largest square with its upper-left
// corner on curve up and lower-right corner on curve low, i.e. the largest s
// such that up(x) − s = low(x + s) for some x — the embedded square of one
// butterfly lobe. Returns 0 when the lobe is absent.
func maxSquare(up, low num.Interp1D, lo, hi float64) float64 {
	span := hi - lo
	best := 0.0
	const xSteps = 160
	for i := 0; i <= xSteps; i++ {
		x := lo + span*float64(i)/xSteps
		gap := func(s float64) float64 { return up.Eval(x) - s - low.Eval(x+s) }
		if gap(0) <= 0 {
			continue // not inside this lobe
		}
		// Scan for a sign change, then bisect.
		prevS := 0.0
		const sSteps = 64
		for j := 1; j <= sSteps; j++ {
			s := span * float64(j) / sSteps
			if gap(s) <= 0 {
				root, err := num.Bisect(gap, prevS, s, 1e-7)
				if err == nil && root > best {
					best = root
				}
				break
			}
			prevS = s
		}
	}
	return best
}

// The Cell methods below are a fresh Scratch: one netlist builder, one
// butterfly and one SNM extraction serve characterization and Monte Carlo
// alike.

// HoldButterfly returns the two branches of the hold-state butterfly for
// plotting or export (cmd/cellchar -butterfly).
func (c *Cell) HoldButterfly(vdd float64) (*Butterfly, error) {
	s, err := NewScratch(c)
	if err != nil {
		return nil, err
	}
	return s.holdButterfly(c.DVt, vdd)
}

// ReadButterfly returns the two branches of the read-access butterfly under
// the given assist bias.
func (c *Cell) ReadButterfly(b ReadBias) (*Butterfly, error) {
	s, err := NewScratch(c)
	if err != nil {
		return nil, err
	}
	return s.readButterfly(c.DVt, b)
}

// HoldSNM returns the hold static noise margin (paper Fig. 2(a)).
func (c *Cell) HoldSNM(vdd float64) (float64, error) {
	s, err := NewScratch(c)
	if err != nil {
		return 0, err
	}
	return s.HoldSNM(c.DVt, vdd)
}

// ReadSNM returns the read static noise margin under the given assist bias
// (paper Figs. 3(a)-(d)).
func (c *Cell) ReadSNM(b ReadBias) (float64, error) {
	s, err := NewScratch(c)
	if err != nil {
		return 0, err
	}
	return s.ReadSNM(c.DVt, b)
}
