package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sramco"
)

const evalLine = `{"op":"evaluate","flavor":"hvt","nr":32,"nc":32,"npre":1,"nwr":1}`

// readBatch posts an NDJSON batch and decodes every result line.
func readBatch(t *testing.T, url, body string) (int, []batchResult) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var out []batchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	for sc.Scan() {
		var r batchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("batch line %q: %v", sc.Bytes(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading batch stream: %v", err)
	}
	return resp.StatusCode, out
}

// TestBatchMixedOps drives optimize, evaluate and pareto items through one
// batch and checks each result against the standalone endpoint: same status,
// bit-identical body.
func TestBatchMixedOps(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := strings.Join([]string{
		`{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}`,
		evalLine,
		``, // blank lines are allowed and skipped
		`{"op":"pareto","capacity_bytes":128,"flavor":"hvt"}`,
		`{"op":"optimize","capacity_bytes":262144,"flavor":"hvt"}`, // infeasible
	}, "\n")
	code, results := readBatch(t, ts.URL, batch)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	byIndex := map[int]batchResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}

	// Index is the item's ordinal among decoded items; the blank line
	// between items 1 and 2 does not count.
	standalone := map[int]struct {
		path, body string
		status     int
	}{
		0: {"/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt"}`, http.StatusOK},
		1: {"/v1/evaluate", strings.Replace(evalLine, `"op":"evaluate",`, "", 1), http.StatusOK},
		2: {"/v1/pareto", `{"capacity_bytes":128,"flavor":"hvt"}`, http.StatusOK},
		3: {"/v1/optimize", `{"capacity_bytes":262144,"flavor":"hvt"}`, http.StatusUnprocessableEntity},
	}
	for idx, want := range standalone {
		r, ok := byIndex[idx]
		if !ok {
			t.Errorf("no result for input line index %d", idx)
			continue
		}
		if r.Status != want.status {
			t.Errorf("item %d: status %d, want %d (body %s)", idx, r.Status, want.status, r.Body)
			continue
		}
		code, _, body := postJSON(t, ts.URL+want.path, want.body)
		if code != want.status {
			t.Errorf("standalone %s: status %d, want %d", want.path, code, want.status)
			continue
		}
		if !bytes.Equal(r.Body, body) {
			t.Errorf("item %d: batch body not bit-identical to %s", idx, want.path)
		}
	}

	// The batch populated the shared cache: standalone repeats are hits.
	_, hdr, _ := postJSON(t, ts.URL+"/v1/optimize", `{"capacity_bytes":128,"flavor":"hvt"}`)
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Errorf("standalone after batch X-Cache = %q, want hit", got)
	}
}

// TestBatchStreamsBeforeCompletion holds one batch item open behind a gate
// and asserts the other item's NDJSON line arrives while the gate is still
// closed — the handler must flush per line, not buffer until the end.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	fw := framework(t)
	// Two worker slots, so the gated optimize fill cannot starve the
	// evaluate item on a single-core machine.
	s := New(fw, Config{Workers: 2})
	gate := make(chan struct{})
	s.optimizeFn = func(ctx context.Context, opts sramco.Options) (*sramco.Optimum, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		return fw.OptimizeWithContext(ctx, opts)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	batch := `{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}` + "\n" + evalLine
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(batch))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}

	// Read the first line while the optimize fill is still gated.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	if !sc.Scan() {
		t.Fatalf("no first line before gate opened: %v", sc.Err())
	}
	var first batchResult
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if first.Op != "evaluate" || first.Status != http.StatusOK {
		t.Fatalf("first streamed line = op %q status %d, want the ungated evaluate", first.Op, first.Status)
	}

	close(gate)
	if !sc.Scan() {
		t.Fatalf("no second line after gate opened: %v", sc.Err())
	}
	var second batchResult
	if err := json.Unmarshal(sc.Bytes(), &second); err != nil {
		t.Fatalf("second line: %v", err)
	}
	if second.Op != "optimize" || second.Status != http.StatusOK {
		t.Errorf("second line = op %q status %d, want optimize/200", second.Op, second.Status)
	}
	if sc.Scan() {
		t.Errorf("unexpected extra line: %s", sc.Bytes())
	}
}

// TestBatchRejectsMalformedInput: any bad line fails the whole batch with a
// 400 before anything streams.
func TestBatchRejectsMalformedInput(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]string{
		"empty body":     "",
		"blank lines":    "\n\n\n",
		"not json":       "hello",
		"missing op":     `{"capacity_bytes":128,"flavor":"hvt"}`,
		"unknown op":     `{"op":"yield","flavor":"hvt"}`,
		"bad field":      `{"op":"optimize","capacity_bytes":128,"flavor":"hvt","bogus":1}`,
		"invalid flavor": `{"op":"optimize","capacity_bytes":128,"flavor":"xvt"}`,
		"good then bad":  `{"op":"optimize","capacity_bytes":128,"flavor":"hvt"}` + "\nnope",
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var env errorEnvelope
		if jerr := json.NewDecoder(resp.Body).Decode(&env); jerr != nil {
			t.Errorf("%s: non-envelope error body: %v", name, jerr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	if resp, err := http.Get(ts.URL + "/v1/batch"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/batch?timeout_ms=-5", "application/x-ndjson", strings.NewReader(evalLine))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative timeout_ms: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchDeadlineAnswersWaitersFillsFinish pins the batch deadline
// semantics: with every evaluate fill held open past a 100ms batch
// deadline, each item's line is a 504 that arrives within the deadline plus
// slack, and the fills still running then finish into the cache, so a
// standalone repeat of each item is a hit.
func TestBatchDeadlineAnswersWaitersFillsFinish(t *testing.T) {
	fw := framework(t)
	s := New(fw, Config{Workers: 4})
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // never leave a fill parked, even on a failed assertion
	var fills atomic.Int32
	s.evaluateFn = func(f sramco.Flavor, d sramco.Design, act sramco.Activity) (*sramco.Result, error) {
		fills.Add(1)
		<-gate
		return fw.Evaluate(f, d, act)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three distinct (uncached) evaluate items.
	items := []string{
		`{"flavor":"hvt","nr":32,"nc":32,"npre":1,"nwr":1}`,
		`{"flavor":"hvt","nr":64,"nc":32,"npre":1,"nwr":1}`,
		`{"flavor":"hvt","nr":128,"nc":32,"npre":1,"nwr":1}`,
	}
	var batch strings.Builder
	for _, it := range items {
		batch.WriteString(`{"op":"evaluate",` + it[1:] + "\n")
	}
	const deadline, slack = 100 * time.Millisecond, 2 * time.Second
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/batch?timeout_ms=100", "application/x-ndjson", strings.NewReader(batch.String()))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	var results []batchResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	for sc.Scan() {
		var r batchResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Errorf("batch line %q: %v", sc.Bytes(), err)
		}
		results = append(results, r)
	}
	elapsed := time.Since(start)
	resp.Body.Close()
	openGate()

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for _, r := range results {
		if r.Status != http.StatusGatewayTimeout {
			t.Errorf("item %d: status %d, want 504 after the batch deadline", r.Index, r.Status)
		}
	}
	if elapsed > deadline+slack {
		t.Errorf("batch answered after %v, want within %v of its %v deadline", elapsed, slack, deadline)
	}

	waitFor(t, "the held fills to land in the cache", func() bool { return s.cache.Len() == len(items) })
	for _, it := range items {
		code, hdr, body := postJSON(t, ts.URL+"/v1/evaluate", it)
		if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
			t.Errorf("standalone %s after the batch: status %d X-Cache %q, want 200/hit (%s)", it, code, hdr.Get("X-Cache"), body)
		}
	}
	if n := fills.Load(); n != int32(len(items)) {
		t.Errorf("%d evaluate fills ran, want %d (one per item)", n, len(items))
	}
}

// TestBatchByteLimitBoundary: a body of exactly maxBatchBytes — final line
// unterminated — is accepted; one byte more is a 400. The pre-fix
// accounting charged a newline the unterminated line didn't have, rejecting
// exact-limit bodies.
func TestBatchByteLimitBoundary(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One real item, then whitespace-only padding lines (skipped by the
	// decoder) up to exactly maxBatchBytes, without a trailing newline.
	var sb strings.Builder
	sb.WriteString(evalLine + "\n")
	pad := strings.Repeat(" ", maxBodyBytes-1) + "\n"
	for sb.Len()+len(pad) <= maxBatchBytes {
		sb.WriteString(pad)
	}
	sb.WriteString(strings.Repeat(" ", maxBatchBytes-sb.Len()))
	body := sb.String()
	if len(body) != maxBatchBytes {
		t.Fatalf("built a %d-byte body, want exactly %d", len(body), maxBatchBytes)
	}

	code, results := readBatch(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("exact-limit body: status %d, want 200", code)
	}
	if len(results) != 1 || results[0].Status != http.StatusOK {
		t.Fatalf("exact-limit body: results %+v, want one OK item", results)
	}

	if code, _ := readBatch(t, ts.URL, body+" "); code != http.StatusBadRequest {
		t.Errorf("over-limit body: status %d, want 400", code)
	}
}

// TestBatchItemLimit: a batch over maxBatchItems is refused up front.
func TestBatchItemLimit(t *testing.T) {
	s := New(framework(t), Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sb strings.Builder
	for i := 0; i <= maxBatchItems; i++ {
		sb.WriteString(evalLine)
		sb.WriteByte('\n')
	}
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

// BenchmarkBatch64 measures a 64-item evaluate batch through the full HTTP
// handler. Items vary by geometry so the batch is real work, not 64 cache
// hits; the cache is disabled to keep every iteration on the fill path.
func BenchmarkBatch64(b *testing.B) {
	s := New(framework(b), Config{CacheSize: -1})
	var sb strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&sb, `{"op":"evaluate","flavor":"hvt","nr":%d,"nc":%d,"npre":1,"nwr":1}`+"\n", 16<<(i%5), 32<<(i%3))
	}
	body := sb.String()

	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleBatch(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	run() // warm the framework and evaluator paths
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
