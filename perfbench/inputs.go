package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"sramco"
)

// objRelTol is the relative tolerance on objective values and metric
// floats when an answer is compared with its reference; discrete design
// fields must match exactly.
const objRelTol = 1e-9

// searchRef is the reference answer of one min-objective search.
type searchRef struct {
	Design    sramco.Design `json:"design"`
	Objective float64       `json:"objective"`
}

// frontPoint is one end of a reference Pareto front.
type frontPoint struct {
	Design  sramco.Design `json:"design"`
	DelayS  float64       `json:"delay_s"`
	EnergyJ float64       `json:"energy_j"`
}

// paretoRef is the reference answer of one Pareto search: its size and
// both endpoints.
type paretoRef struct {
	FrontSize int        `json:"front_size"`
	First     frontPoint `json:"first"`
	Last      frontPoint `json:"last"`
}

// searchRefs is perfbench/refs/searches.json.
type searchRefs struct {
	Comment  string               `json:"comment"`
	Optimize map[string]searchRef `json:"optimize"`
	Pareto   map[string]paretoRef `json:"pareto"`
}

// yieldRef is the reference of one fixed-seed yield stream: the estimate
// and 95% CI half-width of μ−3σ for each margin it measures. Samples is the
// stream's length, recorded for readers of the file; the check is the CI.
type yieldRef struct {
	Samples int                `json:"samples"`
	Mu3     map[string]float64 `json:"mu3"`
	CIHalf  map[string]float64 `json:"ci_half"`
}

// yieldRefs is perfbench/refs/yield.json.
type yieldRefs struct {
	Comment string              `json:"comment"`
	Streams map[string]yieldRef `json:"streams"`
}

// goldenRow is one row of testdata/golden_optima.json.
type goldenRow struct {
	CapacityBits int     `json:"capacity_bits"`
	Flavor       string  `json:"flavor"`
	Method       string  `json:"method"`
	NR           int     `json:"nr"`
	NC           int     `json:"nc"`
	Npre         int     `json:"npre"`
	Nwr          int     `json:"nwr"`
	EDP          float64 `json:"edp_js"`
}

// inputs are the reference data every run checks answers against.
type inputs struct {
	searches searchRefs
	yield    yieldRefs
	golden   map[string]goldenRow // by goldenKey
}

func goldenKey(capBits int, flavor, method string) string {
	return fmt.Sprintf("%d|%s|%s", capBits, flavor, method)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadInputs() (*inputs, error) {
	in := &inputs{golden: map[string]goldenRow{}}
	if err := readJSON(filepath.Join(refsDir, "searches.json"), &in.searches); err != nil {
		return nil, fmt.Errorf("search references: %w", err)
	}
	if err := readJSON(filepath.Join(refsDir, "yield.json"), &in.yield); err != nil {
		return nil, fmt.Errorf("yield references: %w", err)
	}
	var g struct {
		Rows []goldenRow `json:"rows"`
	}
	if err := readJSON(filepath.Join(goldenDir, "golden_optima.json"), &g); err != nil {
		return nil, fmt.Errorf("golden optima: %w", err)
	}
	for _, r := range g.Rows {
		in.golden[goldenKey(r.CapacityBits, r.Flavor, r.Method)] = r
	}
	return in, nil
}
