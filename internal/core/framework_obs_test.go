package core

import (
	"strings"
	"testing"
	"time"

	"sramco/internal/obs"
)

// TestFrameworkTraceCoversSetUp checks NewFramework's set-up spans: one
// core.framework span (with its mode) encloses every circuit and cell span
// of the characterization, and its periph and per-flavor cell children
// account for at least 95 % of its wall time.
func TestFrameworkTraceCoversSetUp(t *testing.T) {
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	reg := obs.Default()
	n0 := reg.HistogramCount("core.framework.duration")

	if _, err := NewFramework(TechPaper, FrameworkOpts{}); err != nil {
		t.Fatal(err)
	}
	obs.SetSink(prev)
	if got := reg.HistogramCount("core.framework.duration") - n0; got != 1 {
		t.Errorf("core.framework.duration observed %d set-ups, want 1", got)
	}

	attr := func(ev obs.Event, key string) string {
		for _, a := range ev.Attrs {
			if a.Key == key {
				return a.S
			}
		}
		return ""
	}
	var fw []obs.Event
	var children time.Duration
	var periphSpans int
	flavors := map[string]bool{}
	for _, ev := range col.Events() {
		switch ev.Name {
		case "core.framework":
			fw = append(fw, ev)
		case "core.framework.periph":
			periphSpans++
			children += ev.Dur
		case "core.framework.cell":
			flavors[attr(ev, "flavor")] = true
			children += ev.Dur
		}
	}
	if len(fw) != 1 {
		t.Fatalf("%d core.framework spans, want 1", len(fw))
	}
	if mode := attr(fw[0], "mode"); mode != TechPaper.String() {
		t.Errorf("core.framework mode = %q, want %q", mode, TechPaper.String())
	}
	if periphSpans != 1 || len(flavors) != 2 || !flavors["LVT"] || !flavors["HVT"] {
		t.Errorf("children: %d periph spans and cell flavors %v, want 1 and {LVT, HVT}", periphSpans, flavors)
	}
	start, end := fw[0].Time.Add(-fw[0].Dur), fw[0].Time
	var inner int
	for _, ev := range col.Events() {
		if !strings.HasPrefix(ev.Name, "circuit.") && !strings.HasPrefix(ev.Name, "cell.") {
			continue
		}
		inner++
		if s := ev.Time.Add(-ev.Dur); s.Before(start) || ev.Time.After(end) {
			t.Errorf("%s span [%v, %v] lies outside core.framework [%v, %v]", ev.Name, s, ev.Time, start, end)
		}
	}
	if inner == 0 {
		t.Error("no circuit or cell spans recorded during set-up")
	}
	if share := float64(children) / float64(fw[0].Dur); share < 0.95 {
		t.Errorf("child spans cover %.1f%% of core.framework's %v, want ≥ 95%%", 100*share, fw[0].Dur)
	}
}
