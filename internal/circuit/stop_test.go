package circuit

import (
	"math"
	"testing"

	"sramco/internal/device"
	"sramco/internal/obs"
)

// switchingInverter is a nonlinear fixture whose output falls once, a few
// picoseconds after the input steps up at 10 ps.
func switchingInverter() *Circuit {
	lib := device.Default7nm()
	c := New()
	c.AddV("vdd", "VDD", Ground, DC(device.Vdd))
	c.AddV("vin", "in", Ground, Step(0, device.Vdd, 10e-12, 2e-12))
	inverter(c, lib, device.LVT, "in", "out", "VDD")
	c.AddC("cl", "out", Ground, 1e-15)
	return c
}

// outFall reads the output's falling 50 % crossing after the input's rising
// one: the answer read of the stop tests below.
func outFall(r *TranResult) (float64, error) {
	tIn, err := r.CrossTime("in", device.Vdd/2, RisingEdge, 0)
	if err != nil {
		return 0, err
	}
	return r.CrossTime("out", device.Vdd/2, FallingEdge, tIn)
}

// requirePrefix fails unless part's time axis and every node trace are a
// bitwise prefix of full's.
func requirePrefix(t *testing.T, part, full *TranResult) {
	t.Helper()
	if len(part.Times) > len(full.Times) {
		t.Fatalf("stopped run has %d samples, full run %d", len(part.Times), len(full.Times))
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(part.Times, full.Times) {
		t.Fatal("stopped run's Times are not a prefix of the full run's")
	}
	for name, i := range full.names {
		if !same(part.volts[i], full.volts[i][:len(part.volts[i])]) || len(part.volts[i]) != len(part.Times) {
			t.Fatalf("node %q of the stopped run is not a prefix of the full run's", name)
		}
	}
}

// TestUntilStopsOnExactPrefix proves the stop predicate only truncates: a
// run stopped by TranOpts.Until records a bitwise prefix of the full-window
// run, and the counters and span account for exactly the recorded steps.
func TestUntilStopsOnExactPrefix(t *testing.T) {
	opts := TranOpts{TStop: 200e-12, DT: 0.5e-12}
	full, err := switchingInverter().Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantFall, err := outFall(full)
	if err != nil {
		t.Fatal(err)
	}

	col := &obs.CollectorSink{}
	prev := obs.SetSink(col)
	defer obs.SetSink(prev)
	reg := obs.Default()

	for _, tc := range []struct {
		name  string
		until func(*TranResult) bool
	}{
		{"at step 7", func(r *TranResult) bool { return len(r.Times) > 7 }},
		{"at the crossing", func(r *TranResult) bool { _, err := outFall(r); return err == nil }},
		{"never", func(*TranResult) bool { return false }},
	} {
		steps0 := reg.CounterValue("circuit.tran.steps")
		n0 := len(col.Events())
		o := opts
		o.Until = tc.until
		part, err := switchingInverter().Transient(o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requirePrefix(t, part, full)
		recorded := int64(len(part.Times) - 1)
		if got := reg.CounterValue("circuit.tran.steps") - steps0; got != recorded {
			t.Errorf("%s: circuit.tran.steps advanced by %d, want the %d recorded steps", tc.name, got, recorded)
		}
		evs := col.Events()[n0:]
		if len(evs) != 1 || evs[0].Name != "circuit.transient" {
			t.Fatalf("%s: want one circuit.transient span, got %+v", tc.name, evs)
		}
		attrs := map[string]int64{}
		for _, a := range evs[0].Attrs {
			attrs[a.Key] = a.I
		}
		if attrs["steps"] != recorded {
			t.Errorf("%s: span steps = %d, want the %d recorded steps", tc.name, attrs["steps"], recorded)
		}
		early := len(part.Times) < len(full.Times)
		if tc.name == "never" && early || tc.name != "never" && !early {
			t.Errorf("%s: recorded %d of %d samples", tc.name, len(part.Times), len(full.Times))
		}
		if want := b2i(early); attrs["stopped"] != want {
			t.Errorf("%s: span stopped = %d, want %d", tc.name, attrs["stopped"], want)
		}
		if got, err := outFall(part); tc.name != "at step 7" && (err != nil || got != wantFall) {
			t.Errorf("%s: crossing %v (%v), want the full-window %v", tc.name, got, err, wantFall)
		}
	}
}

// TestMeasureMatchesFullWindow checks Measure stops right after the answer
// is readable and returns the full-window answer bit for bit, and that its
// per-step reads resume their scans rather than change their results.
func TestMeasureMatchesFullWindow(t *testing.T) {
	opts := TranOpts{TStop: 200e-12, DT: 0.5e-12}
	full, err := switchingInverter().Transient(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := outFall(full)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	steps0 := reg.CounterValue("circuit.tran.steps")
	got, err := switchingInverter().Measure(opts, outFall)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Measure = %v, full-window read = %v", got, want)
	}
	// The crossing falls in step ⌈want/DT⌉; Measure stops on that step.
	if steps, max := reg.CounterValue("circuit.tran.steps")-steps0, int64(math.Ceil(want/opts.DT)); steps != max {
		t.Errorf("Measure ran %d steps, want %d (the step of the crossing)", steps, max)
	}

	// A read that never succeeds runs the whole window and reports the
	// crossing error.
	if _, err := switchingInverter().Measure(opts, func(r *TranResult) (float64, error) {
		return r.CrossBelow("in", "out", 0)
	}); err == nil {
		t.Error("Measure of a crossing that never happens succeeded")
	}
}

// TestCrossingScansResume checks a repeated crossing query on a growing
// result resumes its scan and finds the same crossing a fresh scan finds.
func TestCrossingScansResume(t *testing.T) {
	full, err := switchingInverter().Transient(TranOpts{TStop: 100e-12, DT: 0.5e-12})
	if err != nil {
		t.Fatal(err)
	}
	grow := &TranResult{names: full.names, volts: make([][]float64, len(full.volts))}
	var hits int
	for i := range full.Times {
		grow.Times = full.Times[:i+1]
		for n := range grow.volts {
			grow.volts[n] = full.volts[n][:i+1]
		}
		fresh := &TranResult{Times: grow.Times, names: grow.names, volts: grow.volts}
		a, errA := outFall(grow)
		b, errB := outFall(fresh)
		c, errC := grow.CrossBelow("out", "in", 0)
		d, errD := fresh.CrossBelow("out", "in", 0)
		if (errA == nil) != (errB == nil) || a != b || (errC == nil) != (errD == nil) || c != d {
			t.Fatalf("sample %d: resumed (%v, %v; %v, %v) != fresh (%v, %v; %v, %v)", i, a, errA, c, errC, b, errB, d, errD)
		}
		if errA == nil {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("fixture never crossed")
	}
	// in rising; out falling after that; out below in.
	if len(grow.scans) != 3 {
		t.Errorf("growing result holds %d scans, want one per distinct query (3)", len(grow.scans))
	}
}
