// Command prunestats prints the branch-and-bound breakdown for the golden
// capacity grid: per (capacity, flavor, method), how many candidate points
// the search evaluated, how many the lower bound pruned, how many each
// constraint skipped, and the resulting bound efficiency. Run it when
// touching the bound (internal/array/bound.go) or the searcher
// (internal/core/driver.go) — a correctness-preserving change that loosens the
// bound shows up here as an efficiency drop long before it shows up as a
// latency regression.
//
// Usage:
//
//	prunestats [-mode paper]
package main

import (
	"flag"
	"fmt"
	"strings"

	"sramco/internal/cliutil"
	"sramco/internal/core"
	"sramco/internal/device"
	"sramco/internal/unit"
)

func main() {
	cliutil.SetName("prunestats")
	modeStr := flag.String("mode", "paper", "calibration mode: paper or simulated")
	flag.Parse()

	mode := core.TechPaper
	if strings.EqualFold(*modeStr, "simulated") {
		mode = core.TechSimulated
	} else if !strings.EqualFold(*modeStr, "paper") {
		cliutil.Fatalf("unknown mode %q", *modeStr)
	}
	fw, err := core.NewFramework(mode, core.FrameworkOpts{})
	if err != nil {
		cliutil.Fatalf("%v", err)
	}

	fmt.Printf("%-8s %-6s %-6s %12s %12s %12s %10s %10s\n",
		"capacity", "flavor", "method", "evaluated", "pruned", "skipped", "bound-eff", "wall")
	var totalEval, totalPruned, totalSkipped int
	for _, kb := range []int{1, 2, 4, 8, 16} {
		for _, flavor := range []device.Flavor{device.LVT, device.HVT} {
			for _, method := range []core.Method{core.M1, core.M2} {
				opt, err := fw.Optimize(core.Options{
					CapacityBits: kb * 1024 * 8,
					Flavor:       flavor,
					Method:       method,
				})
				if err != nil {
					cliutil.Fatalf("%d KB %v %v: %v", kb, flavor, method, err)
				}
				st := opt.Stats
				fmt.Printf("%-8s %-6v %-6v %12d %12d %12d %9.1f%% %10s\n",
					unit.Bytes(kb*1024*8), flavor, method,
					st.Evaluated, st.PrunedBound, st.SkippedTotal(),
					100*st.BoundEfficiency(), st.Wall.Round(10_000))
				totalEval += st.Evaluated
				totalPruned += st.PrunedBound
				totalSkipped += st.SkippedTotal()
			}
		}
	}
	// One hybrid point: the enlarged (group-assignment × mux) space leans on
	// the bound far harder than the paper grid, so its efficiency is the
	// first number to drop when a bound change loosens the hybrid terms.
	padp, _ := core.ObjectiveByName("padp")
	hybridOpts := core.Options{
		CapacityBits: 16 * 1024 * 8,
		Flavor:       device.LVT,
		Method:       core.M2,
		Objective:    padp,
		HybridGroups: 8,
	}
	sp := core.DefaultSpace()
	sp.MuxMax = 4
	hybridOpts.Space = sp
	opt, err := fw.Optimize(hybridOpts)
	if err != nil {
		cliutil.Fatalf("16 KB hybrid: %v", err)
	}
	st := opt.Stats
	fmt.Printf("%-8s %-6s %-6s %12d %12d %12d %9.1f%% %10s\n",
		"16KB*", "hyb8", "m2", st.Evaluated, st.PrunedBound, st.SkippedTotal(),
		100*st.BoundEfficiency(), st.Wall.Round(10_000))
	totalEval += st.Evaluated
	totalPruned += st.PrunedBound
	totalSkipped += st.SkippedTotal()

	total := totalEval + totalPruned
	eff := 0.0
	if total > 0 {
		eff = float64(totalPruned) / float64(total)
	}
	fmt.Printf("%-8s %-6s %-6s %12d %12d %12d %9.1f%%\n",
		"total", "", "", totalEval, totalPruned, totalSkipped, 100*eff)
}
