package cell

import (
	"math"
	"testing"

	"sramco/internal/circuit"
	"sramco/internal/device"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// fullWindowRead runs a testbench over its whole window, with no stop
// predicate, and applies its reader: the answer the early-stopped
// measurement must reproduce bit for bit.
func fullWindowRead(t *testing.T, ckt *circuit.Circuit, opts circuit.TranOpts, read func(*circuit.TranResult) (float64, error)) float64 {
	t.Helper()
	if opts.Until != nil {
		t.Fatal("testbench already carries a stop predicate")
	}
	res, err := ckt.Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	v, err := read(res)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestWriteDelayStopsExactly checks WriteDelay, which stops its transient
// right after the Q/QB crossing, against the full 60 ps window on the
// framework's write-delay LUT grid for both flavors at three supplies
// (0.45 V is the default).
func TestWriteDelayStopsExactly(t *testing.T) {
	reg := obs.Default()
	for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
		c := New(flavor)
		for _, v := range []float64{0.35, 0.40, device.Vdd} {
			for _, vwl := range num.Linspace(v, v+0.25, 6) {
				b := NominalWrite(v)
				b.VWL = vwl
				steps0 := reg.CounterValue("circuit.tran.steps")
				got, err := c.WriteDelay(b)
				if err != nil {
					t.Fatalf("%v Vdd=%g VWL=%g: %v", flavor, v, vwl, err)
				}
				steps := reg.CounterValue("circuit.tran.steps") - steps0
				ckt, opts, read := c.writeDelayBench(b)
				want := fullWindowRead(t, ckt, opts, read)
				if !sameBits(got, want) {
					t.Errorf("%v Vdd=%g VWL=%g: WriteDelay %v, full window %v", flavor, v, vwl, got, want)
				}
				if steps >= 1200 {
					t.Errorf("%v Vdd=%g VWL=%g: ran %d steps, the full window's 1200", flavor, v, vwl, steps)
				}
			}
		}
	}
}

// TestBLDischargeStopsExactly checks BLDischargeDelay, which stops at the
// sense crossing, against its full window at the Eq. (1) test biases.
func TestBLDischargeStopsExactly(t *testing.T) {
	c := New(device.HVT)
	const cBL, deltaV = 5e-15, 0.120
	for _, b := range []ReadBias{
		NominalRead(vdd),
		{Vdd: vdd, VDDC: 0.55, VSSC: 0, VWL: vdd},
		{Vdd: vdd, VDDC: 0.55, VSSC: -0.24, VWL: vdd},
	} {
		got, err := c.BLDischargeDelay(b, cBL, deltaV)
		if err != nil {
			t.Fatal(err)
		}
		ckt, opts, read, err := c.blDischargeBench(b, cBL, deltaV)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullWindowRead(t, ckt, opts, read); !sameBits(got, want) {
			t.Errorf("bias %+v: BLDischargeDelay %v, full window %v", b, got, want)
		}
	}
}

// TestWriteMarginDecisionBoundary pins the rail search's write-trip stop
// rule at its edge: for targets at the full-bisection write margin
// VWL − trip and 1 nV either side, the early decision equals
// WriteMargin(b) >= target, and a target far from the margin is decided in
// fewer probes than the full bisection's 30.
func TestWriteMarginDecisionBoundary(t *testing.T) {
	reg := obs.Default()
	var dvt Variation
	dvt[PUL], dvt[AXR] = 0.03, -0.02
	for _, tc := range []struct {
		flavor device.Flavor
		dvt    Variation
		vwl    float64
	}{
		{device.LVT, Variation{}, 0.49},
		{device.HVT, dvt, 0.54},
	} {
		c := New(tc.flavor)
		c.DVt = tc.dvt
		b := NominalWrite(vdd)
		b.VWL = tc.vwl
		wm, err := c.WriteMargin(b)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScratch(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []float64{wm, wm - 1e-9, wm + 1e-9, wm - 0.05, wm + 0.05} {
			p0 := reg.CounterValue("cell.write.trip_probes")
			got, err := s.meetsWriteMargin(tc.dvt, b, target)
			if err != nil {
				t.Fatal(err)
			}
			probes := reg.CounterValue("cell.write.trip_probes") - p0
			if want := wm >= target; got != want {
				t.Errorf("%v VWL=%g target=%.12g: decided %v, WriteMargin %.12g >= target is %v", tc.flavor, tc.vwl, target, got, wm, want)
			}
			if probes > 30 {
				t.Errorf("%v VWL=%g target=%.12g: %d probes, more than the full bisection's 30", tc.flavor, tc.vwl, target, probes)
			}
			if math.Abs(target-wm) > 0.01 && probes >= 30 {
				t.Errorf("%v VWL=%g target=%.12g: a target 50 mV off took all %d probes", tc.flavor, tc.vwl, target, probes)
			}
		}
	}
}
