// Command perfbench is the sramco benchmark. One run executes one seeded
// workload inside this process against the public entry points —
// sramco.Framework searches or sramco.MonteCarloYieldStream — checks every
// answer, and prints a JSON report as the last line of standard output. It
// exits 1 when an answer was wrong.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload optimize-hybrid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the report holds the end-to-end metrics of an untraced run.
// With --trace 1 it holds the per-layer metrics: the workload runs once
// untraced and once with an obs sink installed, and the outside-in layer
// probes time the public calls of each layer on inputs drawn from the
// workload, serve.Server behind a loopback http.Server among them.
// README.md lists the workloads, the metrics and which end-to-end metric
// each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds its set-up state; setup_s is the
// median, and the last state built is the one measured. On a shared VM single
// set-ups of one process range over ±30% of their median; the median of
// eleven rides out five stalled ones.
const setupRuns = 11

// Locations of the benchmark's own reference answers and the repository's
// goldens, relative to the repository root the benchmark runs from.
var (
	refsDir   = "perfbench/refs"
	goldenDir = "testdata"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics")
	writeRefs := fs.Bool("write-refs", false, "recompute the reference answers under perfbench/refs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeRefs {
		if err := writeReferences(stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	in, err := loadInputs()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, log: stderr, in: in}
	rep, err := execute(newWorkload(cfg), cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !rep.Correct {
		return 1
	}
	return 0
}

// runConfig is what every workload is built from.
type runConfig struct {
	seed   int64
	budget time.Duration
	log    io.Writer
	in     *inputs
}

// workload is one benchmark workload. setup builds everything the first
// operation needs (replacing any earlier state); measure runs the workload
// for about budget; close releases the state.
type workload interface {
	setup() error
	measure(budget time.Duration, tr *tracer) (*phase, error)
	// probe runs the outside-in layer probes on inputs drawn from this
	// workload and adds their values to layer.
	probe(layer map[string]float64) error
	close()
}

var workloads = map[string]func(runConfig) workload{
	"optimize-hybrid": newOptimizeHybrid,
	"yield-converge":  newYieldConverge,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phase is the outcome of one measured stretch of a workload.
type phase struct {
	attempted int
	failed    int // errors, non-2xx, timeouts, refusals and wrong answers

	opsPerSec float64       // searches/s or MC samples/s
	p50, tail time.Duration // operation latency summaries behind p50_ms and tail_ms
	summary   string        // how p50 and tail were taken, for the log

	// passPeaks holds the peak RSS (MiB) of each pass of the phase; their
	// median is peak_rss_mb. A single process-wide peak depends on where
	// one garbage collection happened to land and spread by 0.23 of its
	// median across runs.
	passPeaks []float64

	// layer holds per-layer values the phase measured on its own traffic.
	layer map[string]float64
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload end to end and assembles the report.
func execute(w workload, cfg runConfig, traced bool) (*report, error) {
	defer w.close()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		w.close()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !traced {
		ph, err := w.measure(cfg.budget, nil)
		if err != nil {
			return nil, err
		}
		rep := newReport(ph)
		rep.set("setup_s", median(setups))
		rep.set("ops_per_s", ph.opsPerSec)
		rep.set("p50_ms", ms(ph.p50))
		rep.set("tail_ms", ms(ph.tail))
		rep.set("peak_rss_mb", median(ph.passPeaks))
		fmt.Fprintf(cfg.log, "perfbench: %s; set-ups took %.3g s\n", ph.summary, setups)
		return rep, rep.complete(endToEnd)
	}

	// Traced run: half the budget untraced, half with the sink installed,
	// so trace.overhead_frac compares like with like.
	plain, err := w.measure(cfg.budget/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	restore := tr.install()
	traced1, err := w.measure(cfg.budget/2, tr)
	restore()
	if err != nil {
		return nil, err
	}
	layer := map[string]float64{}
	for k, v := range plain.layer {
		layer[k] = v
	}
	for k, v := range traced1.layer {
		layer[k] = v
	}
	tr.putChunkShare(layer)
	tr.putSelfShares(layer)
	if traced1.opsPerSec > 0 {
		layer["trace.overhead_ratio"] = plain.opsPerSec / traced1.opsPerSec
	}
	if err := w.probe(layer); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	logExtras(cfg.log, layer)
	rep := newReport(plain)
	rep.Attempted += traced1.attempted
	rep.Failed += traced1.failed
	rep.Correct = rep.Failed == 0
	for _, m := range perLayer {
		if v, ok := layer[m.Name]; ok {
			rep.set(m.Name, v)
		}
	}
	return rep, rep.complete(perLayer)
}

// logExtras logs the layer values that are not per-layer metrics: those a
// workload can leave at 0 by construction (write failures, coalesced fills,
// the self time of layers it does not reach), which no relative bound can
// compare against.
func logExtras(log io.Writer, layer map[string]float64) {
	var extras []string
	for k, v := range layer {
		if unitOf(k) == "" {
			extras = append(extras, fmt.Sprintf("%s=%.4g", k, v))
		}
	}
	sort.Strings(extras)
	fmt.Fprintf(log, "perfbench: also measured: %s\n", strings.Join(extras, " "))
}

func newReport(ph *phase) *report {
	return &report{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]metricValue{},
	}
}

func (r *report) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

// complete fails when a metric of the set was not measured.
func (r *report) complete(set []metricDef) error {
	var missing []string
	for _, m := range set {
		if _, ok := r.Metrics[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	if len(missing) > 0 {
		return errors.New("metrics not measured: " + strings.Join(missing, ", "))
	}
	return nil
}
