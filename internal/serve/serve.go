// Package serve is the sramco optimization service: an HTTP/JSON layer over
// the co-optimization framework with a bounded LRU result cache, request
// coalescing, a worker pool with per-request deadlines, and drain-on-
// shutdown semantics.
//
// Endpoints:
//
//	POST /v1/optimize  — minimum-objective design search (OptimizeRequest)
//	POST /v1/evaluate  — analytical model on one explicit design point
//	POST /v1/pareto    — full energy-delay frontier of the search space
//	POST /v1/yield     — Monte Carlo margin analysis (YieldRequest)
//	POST /v1/batch     — many optimize/evaluate/pareto items in one NDJSON
//	                     body, results streamed back line by line
//	GET  /healthz      — liveness; 503 once draining
//	GET  /metrics      — obs registry snapshot (JSON; ?format=prom for
//	                     Prometheus text exposition)
//
// Requests are canonicalized (defaults filled, names lowercased) before
// anything else happens, and the canonical form is the cache key: two
// requests that mean the same computation hit the same cache entry no
// matter how they were spelled. Responses are cached as the exact bytes
// sent to the first caller, so cache hits are bit-identical to the fill.
// While a fill is in flight, identical requests coalesce onto it instead
// of starting their own search.
//
// The read path is three tiers (X-Cache reports which answered): the
// precomputed design-space catalog (`catalog`, see internal/catalog and
// DESIGN.md §9), the LRU result cache (`hit`), then a live fill on the
// worker pool (`miss`, or `coalesced` when the caller attached to another
// request's fill).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/mc"
	"sramco/internal/num"
	"sramco/internal/obs"
)

// Service metrics. cache.miss counts fills (one per unique in-flight key),
// not lookups that found nothing: a request that coalesces onto a running
// fill counts under serve.coalesced only.
var (
	mRequests   = obs.NewCounter("serve.requests")
	mCacheHit   = obs.NewCounter("serve.cache.hit")
	mCacheMiss  = obs.NewCounter("serve.cache.miss")
	mCatalogHit = obs.NewCounter("serve.catalog.hit")
	mCoalesced  = obs.NewCounter("serve.coalesced")
	mErrors     = obs.NewCounter("serve.errors")
	mRejected   = obs.NewCounter("serve.rejected") // refused while draining
	gInflight   = obs.NewGauge("serve.inflight")
)

// errDraining rejects new work once shutdown has begun.
var errDraining = errors.New("serve: server is draining")

// Config tunes a Server; zero values select the defaults.
type Config struct {
	CacheSize int           // LRU result-cache entries (default 256; negative disables)
	Timeout   time.Duration // per-request compute deadline cap (default 60s)
	Workers   int           // concurrent optimizer runs (default GOMAXPROCS)

	// AccessLog, when non-nil, receives one structured line per request
	// (method, path, status, cache tier, duration, request ID). /healthz
	// and /metrics probe traffic is not logged.
	AccessLog *slog.Logger

	// Recorder, when non-nil, enables the GET /debug/trace endpoint, which
	// dumps the recorder's buffered spans grouped by trace. The caller is
	// responsible for also installing the recorder as (part of) the obs
	// sink — the server only reads from it.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server is the optimization service. Create with New, mount Handler on an
// http.Server, and call Drain before exiting.
type Server struct {
	fw  *sramco.Framework
	cfg Config

	cache  *lruCache
	flight *flightGroup
	sem    chan struct{} // worker-pool slots

	// cat is the precomputed design-space catalog, consulted before the LRU
	// cache. Installed and swapped atomically (SetCatalog); nil when no
	// catalog is loaded.
	cat atomic.Pointer[catalog.Catalog]

	// baseCtx parents every compute context, so runs survive individual
	// client disconnects (other coalesced waiters may still want the
	// result) but die when the server gives up draining.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware

	// Test seams: the concurrency tests gate these to hold fills open.
	optimizeFn    func(context.Context, sramco.Options) (*sramco.Optimum, error)
	paretoFn      func(context.Context, sramco.Options) (*sramco.ParetoResult, error)
	evaluateFn    func(sramco.Flavor, sramco.Design, sramco.Activity) (*sramco.Result, error)
	yieldStreamFn func(context.Context, sramco.MCStreamConfig, func(sramco.MCCheckpoint) error) (*sramco.MCStreamResult, error)
}

// New builds a Server over a characterized framework.
func New(fw *sramco.Framework, cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		fw:            fw,
		cfg:           cfg,
		cache:         newLRUCache(cfg.CacheSize),
		flight:        newFlightGroup(),
		sem:           make(chan struct{}, cfg.Workers),
		baseCtx:       baseCtx,
		baseCancel:    cancel,
		optimizeFn:    fw.OptimizeWithContext,
		paretoFn:      fw.ParetoSearchContext,
		evaluateFn:    fw.Evaluate,
		yieldStreamFn: sramco.MonteCarloYieldStream,
	}
	s.mux = http.NewServeMux()
	for name := range ops {
		s.mux.HandleFunc("/v1/"+name, s.handleOp(name))
	}
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Recorder != nil {
		s.mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	}
	s.handler = s.instrument(s.mux)
	return s
}

// Handler returns the service's HTTP handler: the endpoint mux wrapped in
// the request-observability middleware (trace propagation, RED metrics,
// access logs — see instrument).
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops admitting /v1/* requests (healthz flips to 503), waits for
// every in-flight request to finish, and only then cancels the compute
// context. If ctx expires first, in-flight runs are canceled and Drain
// returns the ctx error — work is dropped only when the caller's drain
// budget runs out, never silently.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel(errDraining)
		return nil
	case <-ctx.Done():
		s.baseCancel(errDraining)
		<-done // runs unwind promptly once canceled
		return ctx.Err()
	}
}

// admit registers one in-flight request; it fails once draining. The
// returned release must be called when the request finishes.
func (s *Server) admit() (release func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		mRejected.Inc()
		return nil, errDraining
	}
	s.inflight.Add(1)
	// Gauge.Add, not Add-then-Set: concurrent Sets can land out of order
	// and leave the published gauge stale after both requests finish.
	gInflight.Add(1)
	return func() {
		gInflight.Add(-1)
		s.inflight.Done()
	}, nil
}

// acquire takes a worker-pool slot, waiting until one frees up or ctx is
// done.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

func (s *Server) release() { <-s.sem }

// effectiveTimeout caps a client-requested deadline by the server's.
func (s *Server) effectiveTimeout(timeoutMS int) time.Duration {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// respond resolves one canonical request through the full read path:
// catalog, LRU cache, then a coalesced fill on the worker pool. The
// returned state names the tier that answered ("catalog", "hit", "miss" or
// "coalesced"). waitCtx governs only how long this caller waits for a
// result; the fill itself runs under the server's base context and compute
// cap — a coalesced fill may outlive the client that started it, and a
// client's short deadline must never poison the fill for patient waiters
// (DESIGN.md §8). key is c.key(), which the caller computes (and times).
func (s *Server) respond(waitCtx context.Context, key string, c call) (cached, string, error) {
	if cat := s.cat.Load(); cat != nil {
		if body, ok := cat.Lookup(key); ok {
			mCatalogHit.Inc()
			return cached{status: http.StatusOK, body: body}, "catalog", nil
		}
	}
	if res, ok := s.cache.Get(key); ok {
		mCacheHit.Inc()
		return res, "hit", nil
	}

	res, shared, err := s.flight.Do(waitCtx, key, func() (cached, error) {
		mCacheMiss.Inc()
		// The fill's deadline is the server cap, never the first caller's
		// requested timeout: waitCtx already bounds each caller's wait, and
		// deriving runCtx from a client deadline would abort the shared
		// computation for everyone coalesced onto it. Only the leader's
		// trace ID carries over, so the fill's search spans join the trace
		// of the request that started it (coalesced waiters see the result,
		// not the spans — DESIGN.md §10).
		runCtx, cancelRun := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
		defer cancelRun()
		runCtx = obs.ContextWithTrace(runCtx, obs.TraceIDFrom(waitCtx))
		if err := s.acquire(runCtx); err != nil {
			return cached{}, err
		}
		defer s.release()
		v, err := ops[c.op].fill(s, runCtx, c.req)
		if err != nil {
			if errors.Is(err, sramco.ErrInfeasible) {
				// Infeasibility is a deterministic property of the canonical
				// request: cache the structured 422 envelope exactly like a
				// success so identical requests never re-run the search.
				aerr := asAPIError(err)
				if b, merr := json.Marshal(errorEnvelope{Error: *aerr}); merr == nil {
					res := cached{status: aerr.Status, body: b}
					s.cache.Put(key, res)
					return res, nil
				}
			}
			return cached{}, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return cached{}, fmt.Errorf("serve: encoding response: %w", err)
		}
		res := cached{status: http.StatusOK, body: b}
		s.cache.Put(key, res)
		return res, nil
	})
	state := "miss"
	if shared {
		mCoalesced.Inc()
		state = "coalesced"
	}
	return res, state, err
}

// handleOp serves the endpoint of one /v1 op: decode and normalize through
// the op, admit, resolve the canonical request through respond and write
// the result with its Server-Timing. /v1/yield?stream=1 decodes the same
// way but streams uncached.
func (s *Server) handleOp(name string) http.HandlerFunc {
	o := ops[name]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if r.Method != http.MethodPost {
			writeError(w, &apiError{Status: http.StatusMethodNotAllowed, Message: "use POST with a JSON body"})
			return
		}
		req, aerr := o.parse(func(dst any) *apiError { return decodeJSON(r.Body, dst) })
		if aerr != nil {
			writeError(w, aerr)
			return
		}
		if y, ok := req.(*YieldRequest); ok && r.URL.Query().Get("stream") == "1" {
			s.handleYieldStream(w, r, y)
			return
		}
		decoded := time.Now()
		key := req.key(name)
		keyed := time.Now()

		mRequests.Inc()
		release, err := s.admit()
		if err != nil {
			writeError(w, asAPIError(err))
			return
		}
		defer release()
		waitCtx, cancelWait := context.WithTimeout(r.Context(), s.effectiveTimeout(req.deadline()))
		defer cancelWait()

		res, state, err := s.respond(waitCtx, key, call{name, req})
		w.Header()["Server-Timing"] = []string{serverTiming(decoded.Sub(start), keyed.Sub(decoded), keyed, state)}
		if err != nil {
			writeError(w, asAPIError(err))
			return
		}
		writeCached(w, res, state)
	}
}

// serverTiming renders the Server-Timing header of a /v1 answer: decode
// (strict decode plus normalize) and key in ms, the tier that answered as
// desc, and fill (the time on the read path since keyed) unless the
// catalog or the LRU answered.
func serverTiming(decode, key time.Duration, keyed time.Time, tier string) string {
	var buf [96]byte
	b := appendMS(append(buf[:0], "decode;dur="...), decode)
	b = appendMS(append(b, ", key;dur="...), key)
	b = append(append(b, ", tier;desc="...), tier...)
	if tier != "catalog" && tier != "hit" {
		b = appendMS(append(b, ", fill;dur="...), time.Since(keyed))
	}
	return string(b)
}

// appendMS appends d in milliseconds to microsecond precision.
func appendMS(b []byte, d time.Duration) []byte {
	us := d.Microseconds()
	b = strconv.AppendInt(b, us/1000, 10)
	return append(b, '.', byte('0'+us/100%10), byte('0'+us/10%10), byte('0'+us%10))
}

// OptimizeResponse is the body of a successful /v1/optimize call. Request
// echoes the canonical (normalized, deadline-stripped) request that keyed
// the cache entry.
type OptimizeResponse struct {
	Request OptimizeRequest    `json:"request"`
	Design  sramco.Design      `json:"design"`
	EDP     float64            `json:"edp_js"`
	DelayS  float64            `json:"delay_s"`
	EnergyJ float64            `json:"energy_j"`
	Result  *sramco.Result     `json:"result"`
	Stats   sramco.SearchStats `json:"search_stats"`
}

// optimizeResult runs the design search for a canonical request and builds
// the response value.
func (s *Server) optimizeResult(ctx context.Context, req *OptimizeRequest) (any, error) {
	opt, err := s.optimizeFn(ctx, req.options())
	if err != nil {
		return nil, err
	}
	scrubStats(&opt.Stats)
	return &OptimizeResponse{
		Request: *req,
		Design:  opt.Best.Design,
		EDP:     opt.Best.Result.EDP,
		DelayS:  opt.Best.Result.DArray,
		EnergyJ: opt.Best.Result.EArray,
		Result:  opt.Best.Result,
		Stats:   opt.Stats,
	}, nil
}

// EvaluateResponse is the body of a successful /v1/evaluate call.
type EvaluateResponse struct {
	Request EvaluateRequest `json:"request"`
	EDP     float64         `json:"edp_js"`
	DelayS  float64         `json:"delay_s"`
	EnergyJ float64         `json:"energy_j"`
	Result  *sramco.Result  `json:"result"`
}

// evaluateResult evaluates one explicit design point and builds the
// response value.
func (s *Server) evaluateResult(_ context.Context, req *EvaluateRequest) (any, error) {
	design, err := req.design(s.fw)
	if err != nil {
		return nil, err
	}
	res, err := s.evaluateFn(req.flavor, design, sramco.Activity{Alpha: *req.Alpha, Beta: *req.Beta})
	if err != nil {
		// The model rejects structurally invalid points with plain
		// errors; surface them as client errors, not 500s.
		return nil, badRequest("%v", err)
	}
	return &EvaluateResponse{
		Request: *req,
		EDP:     res.EDP,
		DelayS:  res.DArray,
		EnergyJ: res.EArray,
		Result:  res,
	}, nil
}

// ParetoResponse is the body of a successful /v1/pareto call.
type ParetoResponse struct {
	Request OptimizeRequest      `json:"request"`
	Front   []sramco.DesignPoint `json:"front"`
	Stats   sramco.SearchStats   `json:"search_stats"`
}

// paretoResult sweeps the full frontier for a canonical request.
func (s *Server) paretoResult(ctx context.Context, req *OptimizeRequest) (any, error) {
	res, err := s.paretoFn(ctx, req.options())
	if err != nil {
		return nil, err
	}
	scrubStats(&res.Stats)
	return &ParetoResponse{Request: *req, Front: res.Front, Stats: res.Stats}, nil
}

// scrubStats zeroes the environmental search-stats fields (wall-clock time,
// worker count) before a response is encoded. Response bodies are cached,
// replayed verbatim and precomputed into catalogs, so they must depend only
// on the canonical request and the technology — not on the machine or the
// moment that happened to run the fill.
func scrubStats(st *sramco.SearchStats) {
	st.Wall = 0
	st.Workers = 0
}

// YieldResponse is the body of a successful /v1/yield call: the margin
// summaries and the paper's yield statistics, without the raw samples.
type YieldResponse struct {
	Request YieldRequest `json:"request"`
	Samples int          `json:"samples"`

	HSNM *num.Summary `json:"hsnm,omitempty"`
	RSNM *num.Summary `json:"rsnm,omitempty"`
	WM   *num.Summary `json:"wm,omitempty"`

	// MuMinus3Sigma is the paper's μ−3σ yield statistic per computed metric
	// (importance-weighted when the request set a tilt).
	MuMinus3Sigma map[string]float64 `json:"mu_minus_3sigma"`
	// DeltaV is the yield requirement δ = 0.35·Vdd; FailFraction is the
	// (weighted) fraction of samples whose minimum margin falls below it.
	DeltaV       float64 `json:"delta_v"`
	FailFraction float64 `json:"fail_fraction"`

	// Converged is set when the run stopped early inside rel_ci; FailLo and
	// FailHi are the Wilson 95% bounds on the fail fraction.
	Converged bool     `json:"converged,omitempty"`
	FailLo    *float64 `json:"fail_ci_lo,omitempty"`
	FailHi    *float64 `json:"fail_ci_hi,omitempty"`
}

// yieldResult fills a non-streaming /v1/yield request: one engine run with
// no checkpoint sink, answered from its final checkpoint. Raw-value
// summaries describe the drawn distribution; μ−3σ and the fail fraction
// come from the weighted checkpoint estimators.
func (s *Server) yieldResult(ctx context.Context, req *YieldRequest) (any, error) {
	res, err := s.yieldStreamFn(ctx, req.config(), nil)
	if err != nil {
		return nil, err
	}
	final := res.Final
	resp := &YieldResponse{
		Request:       *req,
		Samples:       final.Samples,
		MuMinus3Sigma: map[string]float64{},
		DeltaV:        final.Delta,
		FailFraction:  final.FailFraction,
		Converged:     final.Converged,
		FailLo:        &final.FailLo,
		FailHi:        &final.FailHi,
	}
	if final.HSNM != nil {
		resp.HSNM = ptr(mc.Summarize(res.Samples, mc.HSNM))
		resp.MuMinus3Sigma["hsnm"] = final.HSNM.Mu3
	}
	if final.RSNM != nil {
		resp.RSNM = ptr(mc.Summarize(res.Samples, mc.RSNM))
		resp.MuMinus3Sigma["rsnm"] = final.RSNM.Mu3
	}
	if final.WM != nil {
		resp.WM = ptr(mc.Summarize(res.Samples, mc.WM))
		resp.MuMinus3Sigma["wm"] = final.WM.Mu3
	}
	return resp, nil
}

// handleYieldStream answers POST /v1/yield?stream=1: NDJSON checkpoint
// lines as the streaming engine converges, the last one marked final (and
// converged when the run early-stopped on rel_ci). Streams are never cached
// or coalesced — each request runs its own engine under the client's
// deadline — so two identical streams emit identical lines but compute
// independently. A mid-stream failure becomes a trailing {"error": ...}
// line, since the 200 header is already on the wire.
func (s *Server) handleYieldStream(w http.ResponseWriter, r *http.Request, req *YieldRequest) {
	mRequests.Inc()
	release, err := s.admit()
	if err != nil {
		writeError(w, asAPIError(err))
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.effectiveTimeout(req.deadline()))
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		writeError(w, asAPIError(err))
		return
	}
	defer s.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_, err = s.yieldStreamFn(ctx, req.config(), func(cp sramco.MCCheckpoint) error {
		if err := enc.Encode(cp); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		mErrors.Inc()
		// Best effort: the client may already be gone.
		_ = enc.Encode(errorEnvelope{Error: *asAPIError(err)})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sampleRuntimeGauges()
	snap := obs.Default().Snapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WriteProm(w); err != nil {
			mErrors.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := snap.WriteJSON(w); err != nil {
		mErrors.Inc()
	}
}

// handleDebugTrace answers GET /debug/trace: the span recorder's buffered
// events grouped by trace ID, most recently active trace first, up to
// ?limit=N traces (default 16, 0 = all).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	limit := 16
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, badRequest("limit query parameter %q must be a non-negative integer", q))
			return
		}
		limit = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.cfg.Recorder.Traces(limit)); err != nil {
		mErrors.Inc()
	}
}

// errorEnvelope is the structured body of every non-2xx response.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

func writeError(w http.ResponseWriter, aerr *apiError) {
	mErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(aerr.Status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: *aerr})
}

// writeCached replays a cached response: the tier that answered goes in
// X-Cache, and a cached failure (422 infeasible envelope) replays its
// original status.
func writeCached(w http.ResponseWriter, res cached, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	if res.status != http.StatusOK {
		mErrors.Inc()
		w.WriteHeader(res.status)
	}
	_, _ = w.Write(res.body)
}

// isDeadline reports whether err is (or wraps) a deadline expiry.
func isDeadline(err error) bool { return errors.Is(err, context.DeadlineExceeded) }

// isCanceled reports whether err is (or wraps) a context cancellation.
func isCanceled(err error) bool { return errors.Is(err, context.Canceled) }
