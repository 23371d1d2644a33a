package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sramco/internal/device"
	"sramco/internal/mc"
	"sramco/internal/unit"
)

// TestReportTiltedRun prints the summary report and the checkpoint lines of
// a small importance-tilted run. The report's μ−3σ must be the final
// checkpoint's weighted estimate, not the summary of the raw tilted draws
// (which sit τ× wider than the nominal distribution), and a checkpoint whose
// CI is not yet computable must print n/a rather than the −1 sentinel.
func TestReportTiltedRun(t *testing.T) {
	cfg := mc.StreamConfig{Config: mc.Config{
		Flavor: device.HVT, N: 64, Seed: 1, Metrics: mc.HSNM | mc.RSNM,
		Sampler: mc.SamplerSobol, Tilt: 4,
	}}
	var lines bytes.Buffer
	noCI := 0
	res, err := mc.RunStream(context.Background(), cfg, func(cp mc.Checkpoint) error {
		if cp.HSNM.CIHalf < 0 {
			noCI++
		}
		printCheckpoint(&lines, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, res, false)

	weighted := "μ-3σ=" + unit.Volts(res.Final.HSNM.Mu3) + " "
	raw := "μ-3σ=" + unit.Volts(mc.MuMinusKSigma(mc.Summarize(res.Samples, mc.HSNM), 3)) + " "
	if weighted == raw {
		t.Fatalf("weighted and raw HSNM %q coincide; the config no longer separates them", weighted)
	}
	if !strings.Contains(out.String(), weighted) || strings.Contains(out.String(), raw) {
		t.Errorf("report does not show the weighted HSNM %q (raw %q):\n%s", weighted, raw, out.String())
	}

	if noCI == 0 {
		t.Fatal("no checkpoint with an uncomputable CI; the n/a case is not covered")
	}
	if !strings.Contains(lines.String(), "±n/a (rel n/a)") || strings.Contains(lines.String(), "±-") {
		t.Errorf("uncomputable CI not printed as n/a:\n%s", lines.String())
	}
}
