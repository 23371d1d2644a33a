package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sramco"
	"sramco/internal/mc"
)

// fakeStream installs a yieldStreamFn stub that emits the given checkpoints
// and returns a result built from the last one and the given samples,
// counting invocations.
func fakeStream(s *Server, cps []sramco.MCCheckpoint, samples []mc.Sample, fail error) *atomic.Int64 {
	var calls atomic.Int64
	s.yieldStreamFn = func(ctx context.Context, cfg sramco.MCStreamConfig, emit func(sramco.MCCheckpoint) error) (*sramco.MCStreamResult, error) {
		calls.Add(1)
		for _, cp := range cps {
			if emit != nil {
				if err := emit(cp); err != nil {
					return nil, err
				}
			}
		}
		if fail != nil {
			return nil, fail
		}
		return &sramco.MCStreamResult{
			Config:      cfg,
			Final:       cps[len(cps)-1],
			Checkpoints: len(cps),
			Samples:     samples,
		}, nil
	}
	return &calls
}

// TestYieldStreamEndpoint runs a real streaming yield over HTTP: NDJSON
// checkpoint lines, monotonically growing sample counts, the last line
// marked final and covering all N samples.
func TestYieldStreamEndpoint(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/yield?stream=1", "application/json",
		strings.NewReader(`{"flavor":"hvt","n":16,"seed":7,"metrics":["hsnm"],"sampler":"sobol"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var cps []sramco.MCCheckpoint
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var cp sramco.MCCheckpoint
		if err := json.Unmarshal(sc.Bytes(), &cp); err != nil {
			t.Fatalf("line %d not a checkpoint: %v (%s)", len(cps)+1, err, sc.Text())
		}
		cps = append(cps, cp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoint lines")
	}
	last := cps[len(cps)-1]
	if !last.Final || last.Samples != 16 {
		t.Fatalf("last line not final over all samples: %+v", last)
	}
	prev := 0
	for _, cp := range cps {
		if cp.Samples <= prev {
			t.Fatalf("sample counts not increasing: %+v", cps)
		}
		prev = cp.Samples
		if cp.HSNM == nil || cp.HSNM.Mean <= 0 {
			t.Fatalf("checkpoint missing HSNM stats: %+v", cp)
		}
	}
}

// TestYieldStreamNotCached asserts each ?stream=1 request runs its own
// engine — streams bypass the cache and the flight group.
func TestYieldStreamNotCached(t *testing.T) {
	s := New(framework(t), Config{})
	cp := sramco.MCCheckpoint{Samples: 32, Final: true}
	calls := fakeStream(s, []sramco.MCCheckpoint{cp}, nil, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		code, hdr, body := postJSON(t, ts.URL+"/v1/yield?stream=1", `{"flavor":"hvt","n":32}`)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, code, body)
		}
		if got := hdr.Get("X-Cache"); got != "" {
			t.Fatalf("request %d: stream carries cache tier %q", i, got)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("engine ran %d times for 2 stream requests, want 2", got)
	}
}

// TestYieldStreamMidStreamError asserts an engine failure after checkpoints
// have been sent becomes a trailing NDJSON error line on the 200 stream.
func TestYieldStreamMidStreamError(t *testing.T) {
	s := New(framework(t), Config{})
	cp := sramco.MCCheckpoint{Samples: 32}
	fakeStream(s, []sramco.MCCheckpoint{cp}, nil, errors.New("sample 33: newton diverged"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, body := postJSON(t, ts.URL+"/v1/yield?stream=1", `{"flavor":"hvt","n":64}`)
	if code != http.StatusOK {
		t.Fatalf("status %d (headers are sent before the engine can fail)", code)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want checkpoint + error: %s", len(lines), body)
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil || env.Error.Message == "" {
		t.Fatalf("trailing line is not an error envelope: %s", lines[1])
	}
	if !strings.Contains(env.Error.Message, "newton diverged") {
		t.Fatalf("error line %q lost the cause", env.Error.Message)
	}
}

// TestYieldRelCIRoutesThroughStreamEngine asserts a non-stream request with
// rel_ci set fills through the streaming engine and surfaces its weighted
// estimators, and that the response is cached like any other yield fill.
func TestYieldRelCIRoutesThroughStreamEngine(t *testing.T) {
	s := New(framework(t), Config{})
	mu3 := 0.121
	cp := sramco.MCCheckpoint{
		Samples:      96,
		WM:           &sramco.MCMetricStat{N: 96, Mean: 0.2, Std: 0.025, Mu3: mu3, CIHalf: 0.01, RelCI: 0.08},
		Delta:        sramco.Delta(),
		FailFraction: 0.125,
		FailLo:       0.07,
		FailHi:       0.21,
		Converged:    true,
		Final:        true,
	}
	nan := math.NaN()
	samples := []mc.Sample{{HSNM: nan, RSNM: nan, WM: 0.18}, {HSNM: nan, RSNM: nan, WM: 0.2}, {HSNM: nan, RSNM: nan, WM: 0.22}}
	calls := fakeStream(s, []sramco.MCCheckpoint{cp}, samples, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"flavor":"hvt","n":4096,"seed":4,"metrics":["wm"],"rel_ci":0.1}`
	code, hdr, raw := postJSON(t, ts.URL+"/v1/yield", body)
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, raw)
	}
	if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first fill X-Cache %q, want miss", hdr.Get("X-Cache"))
	}
	var resp YieldResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Samples != 96 || !resp.Converged {
		t.Fatalf("streaming estimators not surfaced: %+v", resp)
	}
	if resp.MuMinus3Sigma["wm"] != mu3 {
		t.Fatalf("mu_minus_3sigma = %v, want weighted %g", resp.MuMinus3Sigma, mu3)
	}
	if resp.FailLo == nil || *resp.FailLo != 0.07 || resp.FailHi == nil || *resp.FailHi != 0.21 {
		t.Fatalf("fail CI not surfaced: %+v", resp)
	}
	if resp.WM == nil || resp.WM.Median != 0.2 {
		t.Fatalf("raw-value summary missing: %+v", resp.WM)
	}

	code2, hdr2, _ := postJSON(t, ts.URL+"/v1/yield", body)
	if code2 != http.StatusOK || hdr2.Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want hit", code2, hdr2.Get("X-Cache"))
	}
	if calls.Load() != 1 {
		t.Fatalf("engine ran %d times, want 1 (second request cached)", calls.Load())
	}
}
