package periph

import (
	"math"
	"sync"
	"testing"

	"sramco/internal/device"
	"sramco/internal/wire"
)

var (
	techOnce sync.Once
	techVal  *Tech
	techErr  error
)

func tech(t *testing.T) *Tech {
	t.Helper()
	techOnce.Do(func() {
		techVal, techErr = Characterize(device.Default7nm(), CharacterizeOpts{})
	})
	if techErr != nil {
		t.Fatalf("Characterize: %v", techErr)
	}
	return techVal
}

func TestCharacterizeTau(t *testing.T) {
	tc := tech(t)
	// A 7 nm FinFET inverter at 450 mV: tau in the low picoseconds.
	if tc.Tau < 0.05e-12 || tc.Tau > 10e-12 {
		t.Errorf("tau = %g s, want 0.05-10 ps", tc.Tau)
	}
	if tc.PInv < 0 || tc.PInv > 6 {
		t.Errorf("inverter parasitic = %g, want 0-6 tau units", tc.PInv)
	}
}

func TestCharacterizeSenseAmp(t *testing.T) {
	tc := tech(t)
	if tc.SADelay <= 0 || tc.SADelay > 100e-12 {
		t.Errorf("sense-amp delay = %g, want positive and < 100 ps", tc.SADelay)
	}
	if tc.SAEnergy <= 0 || tc.SAEnergy > 1e-15 {
		t.Errorf("sense-amp energy = %g, want positive sub-fJ", tc.SAEnergy)
	}
}

func TestCharacterizeNilLibrary(t *testing.T) {
	if _, err := Characterize(nil, CharacterizeOpts{}); err == nil {
		t.Fatal("expected error for nil library")
	}
}

func TestDecoderDelayGrowsWithWidth(t *testing.T) {
	tc := tech(t)
	prev := DecoderResult{}
	for bits := 0; bits <= 10; bits++ {
		r := tc.Decoder(bits, float64(int(1)<<bits)*wire.CHeight())
		if r.Delay < prev.Delay {
			t.Errorf("decoder delay shrank at %d bits: %g after %g", bits, r.Delay, prev.Delay)
		}
		if bits > 0 && r.Energy <= 0 {
			t.Errorf("decoder energy at %d bits = %g", bits, r.Energy)
		}
		prev = r
	}
}

func TestDecoderZeroBits(t *testing.T) {
	tc := tech(t)
	r := tc.Decoder(0, 0)
	if r.Delay <= 0 || r.Energy <= 0 {
		t.Errorf("0-bit decoder should still cost a buffer: %+v", r)
	}
}

func TestDecoderDelayMagnitude(t *testing.T) {
	tc := tech(t)
	// A 9-bit row decoder at this node should take a handful of FO4s:
	// between 2 and 40 tau·(4+p) units.
	fo4 := tc.Tau * (4 + tc.PInv)
	r := tc.Decoder(9, 512*wire.CHeight())
	if r.Delay < 2*fo4 || r.Delay > 40*fo4 {
		t.Errorf("9-bit decoder delay = %g (%.1f FO4), want 2-40 FO4", r.Delay, r.Delay/fo4)
	}
}

func TestRowAndColumnDecoder(t *testing.T) {
	tc := tech(t)
	g := wire.Geometry{NR: 256, NC: 128, W: 64, Npre: 8, Nwr: 2}
	row := tc.RowDecoder(g)
	if row.Delay <= 0 {
		t.Error("row decoder delay must be positive")
	}
	col := tc.ColumnDecoder(g)
	if col.Delay <= 0 || col.Energy <= 0 {
		t.Error("muxed column decoder must have cost")
	}
	// Unmuxed: column decoder vanishes (Table 3).
	g2 := wire.Geometry{NR: 256, NC: 64, W: 64, Npre: 8, Nwr: 2}
	col2 := tc.ColumnDecoder(g2)
	if col2.Delay != 0 || col2.Energy != 0 {
		t.Errorf("unmuxed column decoder should cost nothing: %+v", col2)
	}
	// The 1-of-512 row decoder must be slower than the 1-of-2 word decoder.
	if colBig := tc.Decoder(1, 128*wire.CWidth()); row.Delay <= colBig.Delay {
		t.Errorf("9-bit decoder (%g) should be slower than 1-bit (%g)", row.Delay, colBig.Delay)
	}
}

func TestDriverScalesWithFins(t *testing.T) {
	tc := tech(t)
	d27 := tc.Driver(WLDriverFins)
	d20 := tc.Driver(RailDriverFins)
	if d27.Delay <= 0 || d27.Energy <= 0 {
		t.Fatalf("driver result %+v", d27)
	}
	if d27.Delay <= d20.Delay {
		t.Errorf("27-fin driver (%g) should be slower than 20-fin (%g)", d27.Delay, d20.Delay)
	}
	if d27.Energy <= d20.Energy {
		t.Errorf("27-fin driver energy (%g) should exceed 20-fin (%g)", d27.Energy, d20.Energy)
	}
	// 27 fins over 3 scaling stages is exactly k=3 per stage.
	wantDelay := 3 * tc.Tau * (3 + tc.PInv)
	if math.Abs(d27.Delay-wantDelay)/wantDelay > 1e-9 {
		t.Errorf("27-fin driver delay = %g, want %g", d27.Delay, wantDelay)
	}
}

func TestTable2Currents(t *testing.T) {
	tc := tech(t)
	if tc.IONPfet() != device.Default7nm().PLVT.ION() {
		t.Error("IONPfet mismatch")
	}
	if tg := tc.IONTG(); tg <= tc.IONPfet() {
		t.Errorf("TG current (%g) must exceed single PFET (%g)", tg, tc.IONPfet())
	}
	// Rail driver currents grow with their rail voltage.
	if !(tc.ICVDD(0.64) > tc.ICVDD(0.55)) {
		t.Error("ICVDD must grow with VDDC")
	}
	if !(tc.ICVSS(-0.24) > tc.ICVSS(0)) {
		t.Error("ICVSS must grow with |VSSC|")
	}
	if !(tc.IWL(0.54) > tc.IWL(0.45)) {
		t.Error("IWL must grow with VWL")
	}
	for _, v := range []float64{tc.ICVDD(0.55), tc.ICVSS(-0.1), tc.IWL(0.49)} {
		if v <= 0 || v > 1e-3 {
			t.Errorf("unit current %g out of physical range", v)
		}
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	tc := tech(t)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative decoder bits", func() { tc.Decoder(-1, 0) })
	mustPanic("zero driver fins", func() { tc.Driver(0) })
}

func TestLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 64: 6, 512: 9, 1024: 10}
	for n, want := range cases {
		if got := log2(n); got != want {
			t.Errorf("log2(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestInverterDelayStopsExactly checks inverterDelay, which stops its
// transient right after the output's rising crossing, against the full
// 220 ps window at both characterization loads.
func TestInverterDelayStopsExactly(t *testing.T) {
	tc := tech(t)
	for _, h := range []float64{1, 4} {
		got, err := tc.inverterDelay(h)
		if err != nil {
			t.Fatal(err)
		}
		ckt, opts, read := tc.inverterBench(h)
		res, err := ckt.Transient(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := read(res)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("h=%g: inverterDelay %v, full window %v", h, got, want)
		}
	}
}
