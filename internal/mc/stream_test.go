package mc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"sramco/internal/cell"
	"sramco/internal/device"
)

// syntheticWM wires a cheap deterministic write margin through the seam so
// streaming behavior can be tested at scale without the simulator: the margin
// is an affine function of the drawn ΔVt, so it varies across samples but
// depends only on (seed, index).
func syntheticWM(t *testing.T, offset float64) {
	t.Helper()
	swapWriteMargin(t, func(c *cell.Cell, _ cell.WriteBias) (float64, error) {
		m := offset
		for _, d := range c.DVt {
			m += d
		}
		return m, nil
	})
}

func collectStream(t *testing.T, ctx context.Context, cfg StreamConfig) (*StreamResult, []Checkpoint) {
	t.Helper()
	var cps []Checkpoint
	res, err := RunStream(ctx, cfg, func(cp Checkpoint) error {
		cps = append(cps, cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, cps
}

// TestStreamCheckpointsDeterministicAcrossGOMAXPROCS runs the same streaming
// config single-threaded and fully parallel and requires the emitted
// checkpoint sequences to be bit-identical: blocks are merged in index order
// at fixed boundaries, so scheduling must not leak into any estimate.
func TestStreamCheckpointsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	syntheticWM(t, 0.5)
	cfg := StreamConfig{Config: Config{Flavor: device.HVT, N: 301, Seed: 12, Metrics: WM}}

	prev := runtime.GOMAXPROCS(1)
	res1, cps1 := collectStream(t, context.Background(), cfg)
	runtime.GOMAXPROCS(8)
	res8, cps8 := collectStream(t, context.Background(), cfg)
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(cps1, cps8) {
		t.Fatalf("checkpoint sequences differ between GOMAXPROCS 1 and 8:\n%+v\nvs\n%+v", cps1, cps8)
	}
	if !reflect.DeepEqual(res1.Final, res8.Final) {
		t.Fatalf("final checkpoints differ: %+v vs %+v", res1.Final, res8.Final)
	}
	if res1.Final.Samples != cfg.N || !res1.Final.Final {
		t.Fatalf("final checkpoint covers %d samples, want all %d", res1.Final.Samples, cfg.N)
	}
	if res1.Checkpoints != len(cps1) {
		t.Fatalf("Checkpoints = %d, emitted %d", res1.Checkpoints, len(cps1))
	}
}

// TestStreamEarlyStopHonorsRelCI asserts the tentpole contract: with a
// relative-CI target set, the run stops as soon as the target is met, using
// strictly fewer samples than the fixed-N run, and the reported CI is inside
// the target.
func TestStreamEarlyStopHonorsRelCI(t *testing.T) {
	syntheticWM(t, 0.5)
	base := Config{Flavor: device.HVT, N: 4096, Seed: 4, Metrics: WM}

	full, _ := collectStream(t, context.Background(), StreamConfig{Config: base})
	if full.Final.Samples != base.N {
		t.Fatalf("RelCI=0 run stopped at %d of %d samples", full.Final.Samples, base.N)
	}

	res, cps := collectStream(t, context.Background(), StreamConfig{Config: base, RelCI: 0.10})
	if !res.Final.Converged || !res.Final.Final {
		t.Fatalf("early-stop run did not converge: %+v", res.Final)
	}
	if res.Final.Samples >= base.N {
		t.Fatalf("converged run used %d samples, no fewer than fixed N %d", res.Final.Samples, base.N)
	}
	if res.Stats.Samples != res.Final.Samples {
		t.Fatalf("Stats.Samples %d != merged samples %d", res.Stats.Samples, res.Final.Samples)
	}
	if got := res.Final.WM.RelCI; got < 0 || got > 0.10 {
		t.Fatalf("final rel CI %g outside requested 0.10", got)
	}
	// Every checkpoint before the final one must have been short of the target.
	for _, cp := range cps[:len(cps)-1] {
		if cp.Converged {
			t.Fatalf("non-final checkpoint marked converged: %+v", cp)
		}
	}
}

// TestStreamWriteFailsCountedInFailFraction routes a fraction of samples
// through ErrWriteFail and asserts they enter the fail-fraction estimate
// (zero margin < δ) with a Wilson CI bracketing the point estimate.
func TestStreamWriteFailsCountedInFailFraction(t *testing.T) {
	swapWriteMargin(t, func(c *cell.Cell, _ cell.WriteBias) (float64, error) {
		if c.DVt[0] < -0.01 { // ~a third of draws at σ = 25 mV
			return 0, cell.ErrWriteFail
		}
		return 0.5, nil
	})
	cfg := StreamConfig{Config: Config{Flavor: device.HVT, N: 512, Seed: 21, Metrics: WM}}
	res, _ := collectStream(t, context.Background(), cfg)

	f := res.Final
	if f.FailFraction <= 0 || f.FailFraction >= 1 {
		t.Fatalf("fail fraction %g, want strictly inside (0, 1)", f.FailFraction)
	}
	if !(f.FailLo <= f.FailFraction && f.FailFraction <= f.FailHi) {
		t.Fatalf("Wilson CI [%g, %g] does not bracket fail fraction %g", f.FailLo, f.FailHi, f.FailFraction)
	}
	if f.FailLo <= 0 || f.FailHi >= 1 {
		t.Fatalf("Wilson CI [%g, %g] not strictly inside (0, 1) at N=%d", f.FailLo, f.FailHi, cfg.N)
	}
	if f.WM.Min != 0 {
		t.Fatalf("WM minimum %g, want 0 from the failing writes", f.WM.Min)
	}
}

// TestStreamCancellation cancels the context mid-run and asserts the stream
// aborts with the cancellation cause after the checkpoints already emitted.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	swapWriteMargin(t, func(*cell.Cell, cell.WriteBias) (float64, error) {
		if calls.Add(1) == 40 {
			cancel()
		}
		return 0.5, nil
	})
	_, err := RunStream(ctx, StreamConfig{Config: Config{Flavor: device.HVT, N: 8192, Seed: 2, Metrics: WM}}, nil)
	if err == nil {
		t.Fatal("canceled stream returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error %v does not wrap context.Canceled", err)
	}
}

// TestStreamSampleErrorAborts asserts a real evaluation error stops the
// stream and is reported by the lowest failing sample index, independent of
// which worker hit it first.
func TestStreamSampleErrorAborts(t *testing.T) {
	boom := errors.New("newton diverged")
	swapWriteMargin(t, func(*cell.Cell, cell.WriteBias) (float64, error) { return 0, boom })
	_, err := RunStream(context.Background(), StreamConfig{Config: Config{Flavor: device.HVT, N: 128, Seed: 2, Metrics: WM}}, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("stream error %v does not wrap the sample error", err)
	}
	if !strings.Contains(err.Error(), "sample 0") {
		t.Fatalf("error %v does not name the first failing sample", err)
	}
}

// TestStreamEmitErrorAborts asserts a failing emit callback (a closed HTTP
// connection, in serving terms) stops the run promptly with the emit error.
func TestStreamEmitErrorAborts(t *testing.T) {
	syntheticWM(t, 0.5)
	sink := errors.New("client went away")
	_, err := RunStream(context.Background(), StreamConfig{Config: Config{Flavor: device.HVT, N: 2048, Seed: 6, Metrics: WM}},
		func(Checkpoint) error { return sink })
	if err == nil || !errors.Is(err, sink) {
		t.Fatalf("stream error %v does not wrap the emit error", err)
	}
}

// TestStreamResultSamples asserts the merged samples come back in index
// order, matching the merged sample count — all N at RelCI 0, the converged
// prefix after an early stop.
func TestStreamResultSamples(t *testing.T) {
	syntheticWM(t, 0.5)
	cfg := StreamConfig{Config: Config{Flavor: device.HVT, N: 96, Seed: 8, Metrics: WM}}
	res, _ := collectStream(t, context.Background(), cfg)
	if got := len(res.Samples); got != cfg.N || res.Final.Samples != cfg.N {
		t.Fatalf("returned %d samples (final %d), want %d", got, res.Final.Samples, cfg.N)
	}
	// Samples are in index order: recompute sample 0 directly (normalize
	// first — RunStream normalized its own copy, not ours).
	if err := cfg.Config.normalize(); err != nil {
		t.Fatal(err)
	}
	dr, err := newDrawer(&cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	var s Sample
	dr.draw(0, &s)
	want := 0.5
	for _, d := range s.DVt {
		want += d
	}
	if res.Samples[0].DVt != s.DVt || res.Samples[0].WM != want {
		t.Fatalf("Samples[0] = %+v, want ΔVt %v and WM %g", res.Samples[0], s.DVt, want)
	}

	big := StreamConfig{Config: Config{Flavor: device.HVT, N: 4096, Seed: 4, Metrics: WM}, RelCI: 0.10}
	early, _ := collectStream(t, context.Background(), big)
	if !early.Final.Converged || len(early.Samples) != early.Final.Samples || early.Final.Samples >= big.N {
		t.Fatalf("early stop returned %d samples for a %d-sample final checkpoint (converged %v)",
			len(early.Samples), early.Final.Samples, early.Final.Converged)
	}
}

// TestStreamConfigValidation covers the streaming-specific knobs.
func TestStreamConfigValidation(t *testing.T) {
	ok := Config{Flavor: device.HVT, N: 4, Metrics: WM}
	bad := []StreamConfig{
		{Config: ok, RelCI: -0.1},
		{Config: ok, RelCI: 1},
		{Config: ok, Delta: -0.2},
		{Config: ok, CheckpointEvery: -1},
		{Config: Config{Flavor: device.HVT, N: 1, Metrics: WM}},
	}
	for i, cfg := range bad {
		if _, err := RunStream(context.Background(), cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCanceledRunSurfacesSampleError pins the cancellation fix: a
// cancellation racing a genuine sample failure must surface the failure
// wrapped together with the cancellation cause, not mask it — whether the
// failing sample sits alone in its block (N ≤ 32) or shares it.
func TestCanceledRunSurfacesSampleError(t *testing.T) {
	for _, n := range []int{16, 64} {
		ctx, cancel := context.WithCancel(context.Background())
		boom := errors.New("solver exploded")
		var calls atomic.Int64
		swapWriteMargin(t, func(*cell.Cell, cell.WriteBias) (float64, error) {
			if calls.Add(1) == 1 {
				cancel() // cancellation lands while this sample's error is in flight
				return 0, boom
			}
			return 0.5, nil
		})
		_, err := RunContext(ctx, Config{Flavor: device.HVT, N: n, Seed: 3, Metrics: WM})
		cancel()
		if err == nil {
			t.Fatalf("N=%d: run returned no error", n)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("N=%d: error %v does not wrap context.Canceled", n, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("N=%d: error %v masks the sample failure", n, err)
		}
	}
}
