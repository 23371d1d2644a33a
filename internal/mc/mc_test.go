package mc

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sramco/internal/cell"
	"sramco/internal/device"
	"sramco/internal/num"
)

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Flavor: device.HVT, N: 4, Seed: 42, Metrics: HSNM}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Samples {
		if r1.Samples[i].DVt != r2.Samples[i].DVt {
			t.Fatalf("sample %d shifts differ between identical runs", i)
		}
		if r1.Samples[i].HSNM != r2.Samples[i].HSNM {
			t.Fatalf("sample %d HSNM differs between identical runs", i)
		}
	}
	r3, err := Run(Config{Flavor: device.HVT, N: 4, Seed: 43, Metrics: HSNM})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Samples[0].DVt == r3.Samples[0].DVt {
		t.Error("different seeds produced identical shifts")
	}
}

func TestRunComputesRequestedMetricsOnly(t *testing.T) {
	r, err := Run(Config{Flavor: device.HVT, N: 2, Seed: 7, Metrics: RSNM})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Samples {
		if math.IsNaN(s.RSNM) {
			t.Error("requested RSNM missing")
		}
		if !math.IsNaN(s.HSNM) || !math.IsNaN(s.WM) {
			t.Error("unrequested metrics were computed")
		}
	}
	if r.RSNM.N != 2 || r.HSNM.N != 0 {
		t.Errorf("summaries: RSNM.N=%d HSNM.N=%d", r.RSNM.N, r.HSNM.N)
	}
}

func TestVariationSpreadsMargins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sample MC skipped in -short mode")
	}
	r, err := Run(Config{Flavor: device.HVT, N: 12, Seed: 1, Metrics: RSNM})
	if err != nil {
		t.Fatal(err)
	}
	if r.RSNM.Std <= 0 {
		t.Error("variation must spread RSNM")
	}
	// The mean should be near the nominal value; variation mostly hurts the
	// minimum (asymmetric shifts shrink one lobe).
	nom, err := cell.New(device.HVT).ReadSNM(cell.NominalRead(device.Vdd))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.RSNM.Mean-nom) > 0.35*nom {
		t.Errorf("MC mean RSNM %g far from nominal %g", r.RSNM.Mean, nom)
	}
	if r.RSNM.Min >= nom {
		t.Error("worst MC sample should fall below the nominal RSNM")
	}
}

func TestMuMinusKSigma(t *testing.T) {
	s := num.Summary{Mean: 0.2, Std: 0.03}
	if got := MuMinusKSigma(s, 3); math.Abs(got-0.11) > 1e-12 {
		t.Errorf("μ-3σ = %g, want 0.11", got)
	}
}

func TestFailFraction(t *testing.T) {
	r := &Result{Samples: []Sample{
		{HSNM: 0.20, RSNM: 0.18, WM: math.NaN()},
		{HSNM: 0.10, RSNM: 0.30, WM: math.NaN()},
		{HSNM: 0.25, RSNM: 0.05, WM: math.NaN()},
	}}
	if f := r.FailFraction(0.15); math.Abs(f-2.0/3.0) > 1e-12 {
		t.Errorf("FailFraction = %g, want 2/3", f)
	}
	if f := r.FailFraction(0.01); f != 0 {
		t.Errorf("FailFraction = %g, want 0", f)
	}
}

func TestSampleMin(t *testing.T) {
	s := Sample{HSNM: 0.2, RSNM: 0.1, WM: math.NaN()}
	if s.Min() != 0.1 {
		t.Errorf("Min = %g", s.Min())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Flavor: device.HVT, N: 1}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := Run(Config{Flavor: device.HVT, N: 4, SigmaVt: -0.01}); err == nil {
		t.Error("negative sigma accepted")
	}
}

// TestConfigRejectsStrayMetricBits pins the metric-set validation: a set
// with bits outside hsnm|rsnm|wm used to pass normalize, so Run reported a
// 0% fail fraction with every margin NaN and a streaming run "converged"
// having computed nothing.
func TestConfigRejectsStrayMetricBits(t *testing.T) {
	for _, m := range []Metric{8, HSNM | 8, -1} {
		if _, err := Run(Config{Flavor: device.HVT, N: 4, Metrics: m}); err == nil {
			t.Errorf("Run accepted metric set %#x", int(m))
		}
		cfg := StreamConfig{Config: Config{Flavor: device.HVT, N: 64, Metrics: m}, RelCI: 0.1}
		if _, err := RunStream(context.Background(), cfg, nil); err == nil {
			t.Errorf("RunStream accepted metric set %#x", int(m))
		}
	}
}

// TestParseMetrics covers the one metric-name table: names are case- and
// space-insensitive, an empty list selects every metric, and Names renders
// a set back in canonical order.
func TestParseMetrics(t *testing.T) {
	m, err := ParseMetrics([]string{" WM", "hsnm"})
	if err != nil || m != HSNM|WM {
		t.Fatalf("ParseMetrics = %v, %v; want HSNM|WM", m, err)
	}
	if got := m.Names(); !reflect.DeepEqual(got, []string{"hsnm", "wm"}) {
		t.Errorf("Names = %v, want [hsnm wm]", got)
	}
	if m, err := ParseMetrics(nil); err != nil || m != AllMetrics {
		t.Errorf("ParseMetrics(nil) = %v, %v; want AllMetrics", m, err)
	}
	if _, err := ParseMetrics([]string{"snm"}); err == nil {
		t.Error("unknown metric accepted")
	}
}
