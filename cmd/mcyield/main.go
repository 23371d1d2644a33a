// Command mcyield runs Monte Carlo yield analysis of the 6T SRAM cell under
// per-transistor threshold variation, reporting the (importance-weighted)
// margin statistics, μ−kσ values and the failure fraction against the
// paper's δ = 0.35·Vdd constraint. With -stream it also prints a checkpoint
// line per interval with converging confidence intervals; -rel-ci stops the
// run early once the requested relative CI on μ−3σ is met.
//
// Usage:
//
//	mcyield [-flavor hvt] [-n 200] [-sigma 0.025] [-seed 1]
//	        [-vddc 0.45] [-vssc 0] [-vwl 0.45]
//	        [-metric hsnm,rsnm,wm] [-sampler mc|sobol|lhs] [-tilt 1]
//	        [-stream] [-rel-ci 0]
//	        [-trace out.jsonl] [-metrics] [-progress] [-debug]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sramco/internal/cell"
	"sramco/internal/cliutil"
	"sramco/internal/device"
	"sramco/internal/mc"
	"sramco/internal/obs"
	"sramco/internal/unit"
)

func main() {
	cliutil.SetName("mcyield")
	flavorStr := flag.String("flavor", "hvt", "cell flavor: lvt or hvt")
	n := flag.Int("n", 200, "number of Monte Carlo samples (budget when -rel-ci is set)")
	sigma := flag.Float64("sigma", mc.DefaultSigmaVt, "per-device ΔVt sigma (V)")
	seed := flag.Int64("seed", 1, "PRNG seed")
	vddc := flag.Float64("vddc", device.Vdd, "read-assist cell supply (V)")
	vssc := flag.Float64("vssc", 0, "read-assist cell ground (V, ≤0)")
	vwl := flag.Float64("vwl", device.Vdd, "write wordline level (V)")
	metricStr := flag.String("metric", "", "comma-separated margins to compute (hsnm,rsnm,wm; default all)")
	samplerStr := flag.String("sampler", "mc", "draw sequence: mc, sobol or lhs")
	tilt := flag.Float64("tilt", 1, "importance-sampling σ inflation τ (1 disables)")
	stream := flag.Bool("stream", false, "streaming mode: print a checkpoint line per interval")
	relCI := flag.Float64("rel-ci", 0, "streaming early-stop: target relative 95% CI on μ-3σ (0 disables)")
	obsFlags := cliutil.ObsFlags()
	flag.Parse()

	var flavor device.Flavor
	switch strings.ToLower(*flavorStr) {
	case "lvt":
		flavor = device.LVT
	case "hvt":
		flavor = device.HVT
	default:
		cliutil.Fatalf("unknown flavor %q", *flavorStr)
	}
	var metricNames []string
	if *metricStr != "" {
		metricNames = strings.Split(*metricStr, ",")
	}
	metrics, err := mc.ParseMetrics(metricNames)
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	sampler, err := mc.ParseSampler(strings.ToLower(*samplerStr))
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	if err := obsFlags.Start(); err != nil {
		cliutil.Fatalf("%v", err)
	}

	read := cell.NominalRead(device.Vdd)
	read.VDDC = *vddc
	read.VSSC = *vssc
	write := cell.NominalWrite(device.Vdd)
	write.VWL = *vwl

	cfg := mc.StreamConfig{
		Config: mc.Config{
			Flavor: flavor, N: *n, SigmaVt: *sigma, Seed: *seed,
			Read: read, Write: write, Metrics: metrics,
			Sampler: sampler, Tilt: *tilt,
		},
		RelCI: *relCI,
	}

	// Ctrl-C / SIGTERM abandons the pending samples; in-flight ones finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.Default()
	stopProgress := obsFlags.StartProgress(func() string {
		// The total comes from the flag, not mc.samples.total: the gauge is
		// an in-flight total shared across concurrent runs.
		return fmt.Sprintf("mc: sample %d/%d", reg.CounterValue("mc.samples.done"), *n)
	})

	fmt.Printf("6T-%v, %d samples, σVt=%s, sampler=%v tilt=%g, VDDC=%s VSSC=%s VWL=%s\n",
		flavor, *n, unit.Volts(*sigma), sampler, *tilt,
		unit.Volts(*vddc), unit.Volts(*vssc), unit.Volts(*vwl))

	streamed := *stream || *relCI > 0
	var emit func(mc.Checkpoint) error
	if streamed {
		emit = func(cp mc.Checkpoint) error {
			printCheckpoint(os.Stdout, cp)
			return nil
		}
	}
	res, err := mc.RunStream(ctx, cfg, emit)
	stopProgress()
	if err != nil {
		cliutil.Fatalf("%v", err)
	}
	report(os.Stdout, res, streamed)
	cliutil.Shutdown()
}

// namedStat is one computed metric's estimate with its display name.
type namedStat struct {
	name string
	st   *mc.MetricStat
}

// computed lists the checkpoint's computed metrics in canonical order.
func computed(cp mc.Checkpoint) []namedStat {
	var out []namedStat
	for _, m := range []namedStat{{"HSNM", cp.HSNM}, {"RSNM", cp.RSNM}, {"WM", cp.WM}} {
		if m.st != nil {
			out = append(out, m)
		}
	}
	return out
}

// printCheckpoint prints one streamed checkpoint: the sample count, ESS and
// fail fraction with its CI, then one line per computed metric.
func printCheckpoint(w io.Writer, cp mc.Checkpoint) {
	tag := ""
	if cp.Converged {
		tag = "  [converged]"
	} else if cp.Final {
		tag = "  [final]"
	}
	fmt.Fprintf(w, "checkpoint: %d samples, ESS %.0f, fail %.2f%% [%.2f%%, %.2f%%]%s\n",
		cp.Samples, cp.ESS, cp.FailFraction*100, cp.FailLo*100, cp.FailHi*100, tag)
	for _, m := range computed(cp) {
		ci, rel := "n/a", "n/a"
		if m.st.CIHalf >= 0 {
			ci = unit.Volts(m.st.CIHalf)
		}
		if m.st.RelCI >= 0 {
			rel = fmt.Sprintf("%.2f%%", m.st.RelCI*100)
		}
		fmt.Fprintf(w, "  %-5s μ=%s σ=%s  μ-3σ=%s ±%s (rel %s)\n",
			m.name, unit.Volts(m.st.Mean), unit.Volts(m.st.Std), unit.Volts(m.st.Mu3), ci, rel)
	}
}

// report prints the outcome of a finished run. A streamed run already
// printed its checkpoints, so it gets one done line; otherwise the run stats
// and the final checkpoint's weighted estimators are summarized — under an
// importance tilt those, not the raw tilted draws, estimate the nominal
// margin distribution.
func report(w io.Writer, res *mc.StreamResult, streamed bool) {
	final := res.Final
	if streamed {
		fmt.Fprintf(w, "done: %s, %d checkpoints", res.Stats, res.Checkpoints)
		if final.Converged {
			fmt.Fprintf(w, ", converged inside rel CI %g after %d of %d samples", res.Config.RelCI, final.Samples, res.Config.N)
		}
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  run: %s\n", res.Stats)
	for _, m := range computed(final) {
		fmt.Fprintf(w, "  %-5s mean=%s σ=%s min=%s  μ-3σ=%s  μ-6σ=%s\n",
			m.name, unit.Volts(m.st.Mean), unit.Volts(m.st.Std), unit.Volts(m.st.Min),
			unit.Volts(m.st.Mu3), unit.Volts(m.st.Mean-6*m.st.Std))
	}
	fmt.Fprintf(w, "  fraction with min margin < δ=%s: %.1f%%\n", unit.Volts(final.Delta), final.FailFraction*100)
}
