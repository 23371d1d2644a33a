package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"sramco"
)

// writeReferences recomputes perfbench/refs/searches.json and yield.json
// from the current code. Run it only when a model change is intended to
// move answers, and say so in the change.
func writeReferences(log io.Writer) error {
	fw, err := sramco.NewFramework(sramco.TechPaper)
	if err != nil {
		return err
	}
	sr := searchRefs{
		Comment:  "Reference answers of every search the benchmark runs: the optimize-hybrid population and the probes' min-EDP searches and fronts; regenerate with: bash perfbench/run.sh --write-refs",
		Optimize: map[string]searchRef{},
		Pareto:   map[string]paretoRef{},
	}
	for _, si := range referenceInputs() {
		out, err := runSearch(context.Background(), fw, si)
		if err != nil {
			return fmt.Errorf("%s: %w", si.key(), err)
		}
		if si.Pareto {
			f := out.front
			end := func(p sramco.DesignPoint) frontPoint {
				return frontPoint{Design: p.Design, DelayS: p.Result.DArray, EnergyJ: p.Result.EArray}
			}
			sr.Pareto[si.key()] = paretoRef{FrontSize: len(f), First: end(f[0]), Last: end(f[len(f)-1])}
			continue
		}
		obj, _ := sramco.ObjectiveByName(si.Objective)
		sr.Optimize[si.key()] = searchRef{Design: out.opt.Best.Design, Objective: obj(out.opt.Best.Result)}
	}
	if err := writeJSON(filepath.Join(refsDir, "searches.json"), sr); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %d optimize and %d Pareto references\n", len(sr.Optimize), len(sr.Pareto))

	yr := yieldRefs{
		Comment: "Reference μ−3σ (V) and 95% CI half-widths of the fixed-seed yield-converge streams; a run's estimate must fall inside the reference CI. Regenerate with: bash perfbench/run.sh --write-refs",
		Streams: map[string]yieldRef{},
	}
	for r := 0; r < len(yieldSeeds); r++ {
		for _, sc := range yieldRound(r) {
			res, err := sramco.MonteCarloYieldStream(context.Background(), sc, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", streamKey(sc), err)
			}
			ref := yieldRef{Samples: res.Stats.Samples, Mu3: map[string]float64{}, CIHalf: map[string]float64{}}
			for name, st := range streamMetrics(res) {
				if !(st.CIHalf > 0) || math.IsInf(st.CIHalf, 0) {
					return fmt.Errorf("%s: %s has no confidence interval", streamKey(sc), name)
				}
				ref.Mu3[name] = st.Mu3
				ref.CIHalf[name] = st.CIHalf
			}
			yr.Streams[streamKey(sc)] = ref
			fmt.Fprintf(log, "%s: %d samples\n", streamKey(sc), res.Stats.Samples)
		}
	}
	if err := writeJSON(filepath.Join(refsDir, "yield.json"), yr); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %d yield stream references\n", len(yr.Streams))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
