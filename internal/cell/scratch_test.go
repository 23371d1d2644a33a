package cell

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

// TestScratchMatchesNaive proves that one Scratch reused across samples and
// biases reproduces the Cell methods, which build fresh netlists per call:
// SNMs bit-identical, write margin within the trip tolerance. Several
// variations run through ONE scratch back to back, each under nominal and
// assisted biases, so any state leaking between samples or surviving a
// re-bias would show up as a mismatch.
func TestScratchMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sim parity test")
	}
	base := New(device.HVT)
	s, err := NewScratch(base)
	if err != nil {
		t.Fatal(err)
	}
	vdd := device.Vdd
	reads := []ReadBias{
		NominalRead(vdd),
		{Vdd: vdd, VDDC: vdd + 0.1, VSSC: -0.24, VWL: vdd}, // boosted rail + negative ground
	}
	writes := []WriteBias{
		NominalWrite(vdd),
		{Vdd: vdd, VWL: vdd + 0.1, VBL: -0.1}, // wordline overdrive + negative bitline
	}

	rng := rand.New(rand.NewSource(5))
	vars := []Variation{{}}
	for k := 0; k < 2; k++ {
		var v Variation
		for i := range v {
			v[i] = rng.NormFloat64() * 0.025
		}
		vars = append(vars, v)
	}

	for vi, dvt := range vars {
		naive := &Cell{Lib: base.Lib, Flavor: base.Flavor, DVt: dvt}

		h0, err0 := naive.HoldSNM(vdd)
		h1, err1 := s.HoldSNM(dvt, vdd)
		if err0 != nil || err1 != nil {
			t.Fatalf("var %d hold: %v / %v", vi, err0, err1)
		}
		if h0 != h1 {
			t.Errorf("var %d: HoldSNM naive %v != scratch %v", vi, h0, h1)
		}

		for bi, rb := range reads {
			r0, err0 := naive.ReadSNM(rb)
			r1, err1 := s.ReadSNM(dvt, rb)
			if err0 != nil || err1 != nil {
				t.Fatalf("var %d read bias %d: %v / %v", vi, bi, err0, err1)
			}
			if r0 != r1 {
				t.Errorf("var %d read bias %d: ReadSNM naive %v != scratch %v", vi, bi, r0, r1)
			}
		}

		for bi, wb := range writes {
			w0, err0 := naive.WriteMargin(wb)
			w1, err1 := s.WriteMargin(dvt, wb)
			if err0 != nil || err1 != nil {
				t.Fatalf("var %d write bias %d: %v / %v", vi, bi, err0, err1)
			}
			if math.Abs(w0-w1) > writeTripTolV {
				t.Errorf("var %d write bias %d: WriteMargin naive %v vs scratch %v (> %v apart)", vi, bi, w0, w1, writeTripTolV)
			}
		}
	}
}

// TestScratchWriteFail proves the scratch write path reports ErrWriteFail for
// a cell that cannot flip, matching the naive semantics the Monte Carlo
// engine's fail-fraction accounting depends on.
func TestScratchWriteFail(t *testing.T) {
	base := New(device.HVT)
	s, err := NewScratch(base)
	if err != nil {
		t.Fatal(err)
	}
	// A wordline far below threshold cannot flip the cell.
	wb := WriteBias{Vdd: device.Vdd, VWL: 0.05, VBL: 0}
	if _, err := s.WriteMargin(Variation{}, wb); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("want ErrWriteFail, got %v", err)
	}
}

// TestWriteFailEndsSpan proves a write-fail sample — a legitimate Monte
// Carlo outcome — still emits its cell.write_trip span, tagged with the
// error, so a trace accounts for the time it took.
func TestWriteFailEndsSpan(t *testing.T) {
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	s, err := NewScratch(New(device.HVT))
	if err != nil {
		t.Fatal(err)
	}
	wb := WriteBias{Vdd: device.Vdd, VWL: 0.05}
	if _, err := s.WriteMargin(Variation{}, wb); !errors.Is(err, ErrWriteFail) {
		t.Fatalf("want ErrWriteFail, got %v", err)
	}
	for _, ev := range col.Events() {
		if ev.Name != "cell.write_trip" {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "err" && strings.Contains(a.S, ErrWriteFail.Error()) {
				return
			}
		}
		t.Fatalf("cell.write_trip span has no err attribute: %+v", ev.Attrs)
	}
	t.Fatal("no cell.write_trip span emitted for a write-fail sample")
}

// TestWriteTripProbeCounts pins both write-trip stop rules by the number of
// transient probes at nominal bias: the characterization path bisects a
// fixed 28 times, the Monte Carlo path until the wordline interval is
// writeTripTolV wide. Each count includes the two endpoint probes.
func TestWriteTripProbeCounts(t *testing.T) {
	reg := obs.Default()
	probes := func(f func() (float64, error)) int64 {
		t.Helper()
		n0 := reg.CounterValue("cell.write.trip_probes")
		if _, err := f(); err != nil {
			t.Fatal(err)
		}
		return reg.CounterValue("cell.write.trip_probes") - n0
	}
	c := New(device.HVT)
	wb := NominalWrite(device.Vdd)
	if got := probes(func() (float64, error) { return c.WriteMargin(wb) }); got != 30 {
		t.Errorf("Cell.WriteMargin made %d probes, want 30 (lo, hi, 28 halvings)", got)
	}
	s, err := NewScratch(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + int64(math.Ceil(math.Log2(wb.VWL/writeTripTolV)))
	if got := probes(func() (float64, error) { return s.WriteMargin(Variation{}, wb) }); got != want {
		t.Errorf("Scratch.WriteMargin made %d probes, want %d", got, want)
	}
}
