package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sramco"
)

var (
	testFWOnce sync.Once
	testFW     *sramco.Framework
	testFWErr  error
)

func framework(t *testing.T) *sramco.Framework {
	t.Helper()
	testFWOnce.Do(func() { testFW, testFWErr = sramco.NewFramework(sramco.TechPaper) })
	if testFWErr != nil {
		t.Fatal(testFWErr)
	}
	return testFW
}

// drawn renders every input a workload generates from seed in the order it
// would run them, as one string per input.
func drawn(t *testing.T, workload string, seed int64) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []string
	switch workload {
	case "optimize-hybrid":
		pop := hybridInputs()
		for pass := 0; pass < 3; pass++ {
			for _, i := range rng.Perm(len(pop)) {
				out = append(out, pop[i].key())
			}
		}
	case "yield-converge":
		for r := 0; r < 3; r++ {
			streams := yieldRound(r)
			for _, i := range rng.Perm(len(streams)) {
				out = append(out, streamKey(streams[i]))
			}
		}
	default:
		t.Fatalf("unknown workload %q", workload)
	}
	return out
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloadNames() {
		a, b := drawn(t, w, 7), drawn(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew different inputs on two calls", w)
		}
		if len(a) == 0 {
			t.Errorf("%s: no inputs drawn", w)
		}
	}
}

func TestInputsDifferAcrossSeeds(t *testing.T) {
	for _, w := range workloadNames() {
		if reflect.DeepEqual(drawn(t, w, 1), drawn(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 drew the same inputs", w)
		}
	}
}

// probeRequests renders the serve probe's open-loop schedule and requests
// drawn from seed.
func probeRequests(t *testing.T, seed int64) []string {
	t.Helper()
	g, err := newReqGen(framework(t), seed, func(*request) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range schedule(rand.New(rand.NewSource(seed^0x10ad)), nominalRate, loadSpan) {
		r := g.next()
		out = append(out, fmt.Sprintf("%v %s %s", d, r.path, r.body))
	}
	return out
}

func TestProbeRequestsDeterministicPerSeed(t *testing.T) {
	a := probeRequests(t, 7)
	if len(a) == 0 || !reflect.DeepEqual(a, probeRequests(t, 7)) {
		t.Error("seed 7 drew no or different serve probe requests on two calls")
	}
	if reflect.DeepEqual(a, probeRequests(t, 8)) {
		t.Error("seeds 7 and 8 drew the same serve probe requests")
	}
}

// TestFreshKeysNeverRepeat checks the never-repeated serve tier.
func TestFreshKeysNeverRepeat(t *testing.T) {
	g, err := newReqGen(framework(t), 3, func(*request) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		k := g.freshReq().key()
		if seen[k] {
			t.Fatalf("fresh key %s drawn twice", k)
		}
		seen[k] = true
	}
	if len(g.repeat) <= 256 {
		t.Errorf("repeated tier has %d keys; it must exceed the 256-entry LRU", len(g.repeat))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is not valid", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("unit %q of %s is not valid", m.Unit, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %s declared twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloadNames() {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is not valid or collides with a metric", w)
		}
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json declares exactly the
// metrics the report prints, and only workloads that exist.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s needs a one-line why", w.Name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, report prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, report prints %v", layer, perLayer)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := quantile(ds, c.q); got != c.want {
			t.Errorf("quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestCoverageAndClip(t *testing.T) {
	iv := []interval{{0, 10}, {5, 15}, {20, 30}}
	if got := coverage(iv); got != 25 {
		t.Errorf("coverage = %d, want 25", got)
	}
	b := merge([]interval{{8, 22}})
	if got := coverage(clip(iv, b)); got != 9 {
		t.Errorf("clipped coverage = %d, want 9", got)
	}
}
