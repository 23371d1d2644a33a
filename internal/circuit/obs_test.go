package circuit

import (
	"testing"
	"time"

	"sramco/internal/obs"
)

// rcCircuit builds the cheap series R-C test fixture.
func rcCircuit() *Circuit {
	c := New()
	c.AddV("vin", "in", Ground, Step(0, 1, 0, 1e-12))
	c.AddR("r", "in", "out", 1e3)
	c.AddC("c", "out", Ground, 1e-12)
	return c
}

// TestTransientNoopInstrumentationAllocFree proves the exact obs sequence
// Transient performs — run span with its attrs, counters, duration
// histogram — allocates nothing when no sink is installed, so the
// instrumented solver adds zero allocations on the default path.
func TestTransientNoopInstrumentationAllocFree(t *testing.T) {
	prev := obs.SetSink(nil)
	defer obs.SetSink(prev)
	allocs := testing.AllocsPerRun(1000, func() {
		start := time.Now()
		sp := obs.StartSpan("circuit.transient")
		mTranRuns.Inc()
		mTranSteps.Add(400)
		mTranHalvings.Inc()
		mNewtonIters.Add(3)
		hTranDur.Observe(time.Since(start))
		sp.Int("steps", 400)
		sp.Int("halvings", 1)
		sp.Int("stopped", 0)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation sequence allocates %v times per run, want 0", allocs)
	}
}

// TestTransientNoopTracerAddsNoAllocs compares whole-solver allocation
// counts with the tracer disabled and enabled: the disabled run must never
// allocate more, and the two disabled measurements must agree exactly — the
// no-op path is deterministic and pays nothing for the tracing hooks.
func TestTransientNoopTracerAddsNoAllocs(t *testing.T) {
	prev := obs.SetSink(nil)
	defer obs.SetSink(prev)
	run := func() {
		if _, err := rcCircuit().Transient(TranOpts{TStop: 1e-9, DT: 5e-12}); err != nil {
			t.Fatal(err)
		}
	}
	off1 := testing.AllocsPerRun(10, run)
	off2 := testing.AllocsPerRun(10, run)
	if off1 != off2 {
		t.Fatalf("disabled-tracer allocations not stable: %v vs %v", off1, off2)
	}
	obs.SetSink(&obs.CollectorSink{})
	on := testing.AllocsPerRun(10, run)
	obs.SetSink(nil)
	if off1 > on {
		t.Fatalf("disabled tracer allocates more than enabled (%v > %v)", off1, on)
	}
}

// TestTransientSpanReconciles checks the emitted transient span against the
// returned solution and the registry counters.
func TestTransientSpanReconciles(t *testing.T) {
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	reg := obs.Default()
	runs0 := reg.CounterValue("circuit.tran.runs")
	steps0 := reg.CounterValue("circuit.tran.steps")

	res, err := rcCircuit().Transient(TranOpts{TStop: 1e-9, DT: 5e-12})
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	steps := int64(len(res.Times) - 1)

	if got := reg.CounterValue("circuit.tran.runs") - runs0; got != 1 {
		t.Errorf("circuit.tran.runs advanced by %d, want 1", got)
	}
	if got := reg.CounterValue("circuit.tran.steps") - steps0; got != steps {
		t.Errorf("circuit.tran.steps advanced by %d, want %d", got, steps)
	}

	var span *obs.Event
	for _, ev := range col.Events() {
		if ev.Name == "circuit.transient" {
			e := ev
			span = &e
		}
	}
	if span == nil {
		t.Fatal("no circuit.transient span emitted")
	}
	got := map[string]int64{}
	for _, a := range span.Attrs {
		got[a.Key] = a.I
	}
	if got["steps"] != steps {
		t.Errorf("span steps attr = %d, want %d", got["steps"], steps)
	}
	if span.Dur <= 0 {
		t.Errorf("span duration %v, want > 0", span.Dur)
	}
}

// TestFailedAnalysesEndSpans proves a failed DC sweep or transient still
// emits its span, tagged with the error, so a trace accounts for the wall
// time the failed solve spent. Two sources forcing different voltages onto
// one node leave the MNA Jacobian singular at every Newton fallback.
func TestFailedAnalysesEndSpans(t *testing.T) {
	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)

	c := New()
	c.AddV("v1", "a", Ground, DC(1))
	c.AddV("v2", "a", Ground, DC(2))
	c.AddR("r", "a", Ground, 1e3)
	if _, err := c.DCSweep("v1", []float64{0, 1}); err == nil {
		t.Fatal("DCSweep of a source loop succeeded")
	}
	if _, err := c.Transient(TranOpts{TStop: 1e-12, DT: 1e-13}); err == nil {
		t.Fatal("Transient of a source loop succeeded")
	}
	for _, name := range []string{"circuit.dc_sweep", "circuit.transient"} {
		found := false
		for _, ev := range col.Events() {
			if ev.Name != name {
				continue
			}
			for _, a := range ev.Attrs {
				found = found || (a.Key == "err" && a.S != "")
			}
		}
		if !found {
			t.Errorf("no %s span with an err attribute emitted for a failed analysis", name)
		}
	}
}
