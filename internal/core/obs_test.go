package core

import (
	"context"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

func attrInt(t *testing.T, ev obs.Event, key string) int64 {
	t.Helper()
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.I
		}
	}
	t.Fatalf("event %s missing attr %q", ev.Name, key)
	return 0
}

// TestSearchTraceReconciles proves the invariant CLI traces rely on: the
// per-chunk span evaluation counts sum exactly to SearchStats.Evaluated,
// one chunk span is emitted per shard, and the run span reports the same
// total.
func TestSearchTraceReconciles(t *testing.T) {
	f := paperFramework(t)
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	space := SearchSpace{VSSCMin: -0.04, VSSCStep: 0.02, NRMax: 1024, NCMax: 1024, NpreMax: 4, NwrMax: 3}
	opt, err := f.Optimize(Options{
		CapacityBits: 16 * 1024,
		Flavor:       device.HVT,
		Method:       M2,
		Space:        space,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	var chunkSpans int
	var chunkSum, runTotal int64
	var run, bound []obs.Event
	for _, ev := range col.Events() {
		switch ev.Name {
		case "core.search.chunk":
			chunkSpans++
			chunkSum += attrInt(t, ev, "evaluated")
		case "core.search":
			run = append(run, ev)
			runTotal = attrInt(t, ev, "evaluated")
		case "core.search.bound_pass":
			bound = append(bound, ev)
		}
	}
	if len(run) != 1 {
		t.Fatalf("%d core.search run spans, want 1", len(run))
	}
	if len(bound) != 1 {
		t.Fatalf("%d core.search.bound_pass spans, want 1", len(bound))
	}
	if !within(bound[0], run[0]) {
		t.Errorf("bound pass [%v, %v] not nested in the run span [%v, %v]",
			bound[0].Time.Add(-bound[0].Dur), bound[0].Time, run[0].Time.Add(-run[0].Dur), run[0].Time)
	}
	// Every point of a prepared unit is either evaluated or pruned.
	units, prepared := attrInt(t, bound[0], "units"), attrInt(t, bound[0], "prepared")
	if prepared <= 0 || prepared > units {
		t.Errorf("bound pass prepared %d of %d units", prepared, units)
	}
	if pts := prepared * int64(space.NpreMax*space.NwrMax); pts != int64(opt.Stats.Evaluated+opt.Stats.PrunedBound) {
		t.Errorf("prepared units span %d points, Evaluated + PrunedBound = %d",
			pts, opt.Stats.Evaluated+opt.Stats.PrunedBound)
	}
	if chunkSpans != opt.Stats.Chunks {
		t.Errorf("%d chunk spans, want %d (one per shard)", chunkSpans, opt.Stats.Chunks)
	}
	if chunkSum != int64(opt.Stats.Evaluated) {
		t.Errorf("chunk span evaluations sum to %d, SearchStats.Evaluated = %d", chunkSum, opt.Stats.Evaluated)
	}
	if runTotal != int64(opt.Stats.Evaluated) {
		t.Errorf("run span reports %d evaluations, SearchStats.Evaluated = %d", runTotal, opt.Stats.Evaluated)
	}
}

// within reports whether span a lies inside span b in time.
func within(a, b obs.Event) bool {
	return !a.Time.Add(-a.Dur).Before(b.Time.Add(-b.Dur)) && !a.Time.After(b.Time)
}

// TestBoundPassSpanEndsOnCancel proves the bound-pass span is emitted on a
// canceled run too, tagged with the cancellation cause.
func TestBoundPassSpanEndsOnCancel(t *testing.T) {
	f := paperFramework(t)
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.OptimizeContext(ctx, Options{CapacityBits: 4096, Flavor: device.HVT, Method: M2}); err == nil {
		t.Fatal("canceled search succeeded")
	}
	var bound []obs.Event
	for _, ev := range col.Events() {
		if ev.Name == "core.search.bound_pass" {
			bound = append(bound, ev)
		}
	}
	if len(bound) != 1 {
		t.Fatalf("%d core.search.bound_pass spans on a canceled run, want 1", len(bound))
	}
	found := false
	for _, a := range bound[0].Attrs {
		if a.Key == "err" && a.S == context.Canceled.Error() {
			found = true
		}
	}
	if !found {
		t.Errorf("canceled bound pass span attrs %+v lack err=%q", bound[0].Attrs, context.Canceled.Error())
	}
}

// TestSearchCounterMatchesStats proves the live core.search.evaluated
// counter advances by exactly the deterministic SearchStats total.
func TestSearchCounterMatchesStats(t *testing.T) {
	f := paperFramework(t)
	reg := obs.Default()
	before := reg.CounterValue("core.search.evaluated")
	opt, err := f.Optimize(Options{
		CapacityBits: 4096,
		Flavor:       device.LVT,
		Method:       M1,
		Space:        SearchSpace{VSSCMin: -0.02, VSSCStep: 0.01, NRMax: 1024, NCMax: 1024, NpreMax: 3, NwrMax: 2},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := reg.CounterValue("core.search.evaluated") - before; got != int64(opt.Stats.Evaluated) {
		t.Errorf("counter advanced by %d, SearchStats.Evaluated = %d", got, opt.Stats.Evaluated)
	}
}
