package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"strings"

	"sramco"
	"sramco/internal/array"
	"sramco/internal/mc"
	"sramco/internal/wire"
)

// maxBodyBytes bounds every request body the decoders will read; the
// request structs are small, so anything larger is abuse, not a request.
const maxBodyBytes = 1 << 20

// Request-size and workload guardrails. The service is a shared resource:
// a single request must not be able to pin a worker for minutes.
const (
	maxCapacityBytes = 1 << 20 // 1 MB array: largest capacity the search serves
	maxYieldSamples  = 20000   // Monte Carlo sample ceiling per request
)

// apiError is a structured client-visible failure: Status is the HTTP code,
// Message the body. It implements error so the handlers can return it
// through the ordinary error path.
type apiError struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Message }

// badRequest builds a 400 apiError.
func badRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// decodeJSON strictly decodes one JSON object from r into dst: unknown
// fields, trailing garbage and oversized bodies are all 400s, never panics.
func decodeJSON(r io.Reader, dst any) *apiError {
	dec := json.NewDecoder(io.LimitReader(r, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	// A second Decode must see EOF: one request, one object.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return badRequest("invalid request body: trailing data after JSON object")
	}
	return nil
}

// request is a /v1 request body. normalize validates it and fills defaults
// in place, so two requests meaning the same computation become the same
// canonical request (and therefore the same cache key). key names the
// canonical request's cache entry under an op. deadline is the caller's
// timeout_ms, which normalize moves out of the canonical request: it shapes
// how long a caller waits, not what is computed.
type request interface {
	normalize() *apiError
	key(op string) string
	deadline() int
}

// op is the one definition of a /v1 operation, shared by its endpoint, its
// /v1/batch lines and the catalog builder. parse strict-decodes a request
// through decode (a standalone body, or a batch line that also carries the
// op tag) and normalizes it. fill computes the response for a canonical
// request on a miss from that request alone, which is what makes cached
// and catalog bodies bit-identical to a live fill.
type op struct {
	parse func(decode func(dst any) *apiError) (request, *apiError)
	fill  func(s *Server, ctx context.Context, req request) (any, error)
}

var ops = map[string]op{
	"optimize": opOf((*Server).optimizeResult),
	"pareto":   opOf((*Server).paretoResult),
	"evaluate": opOf((*Server).evaluateResult),
	"yield":    opOf((*Server).yieldResult),
}

// opOf builds the op whose canonical request is an R.
func opOf[R any, P interface {
	*R
	request
}](fill func(*Server, context.Context, P) (any, error)) op {
	return op{
		parse: func(decode func(any) *apiError) (request, *apiError) {
			req := P(new(R))
			if aerr := decode(req); aerr != nil {
				return nil, aerr
			}
			return req, req.normalize()
		},
		fill: func(s *Server, ctx context.Context, req request) (any, error) { return fill(s, ctx, req.(P)) },
	}
}

// call is one canonical request of an op: what the read path resolves.
type call struct {
	op  string
	req request
}

func (c call) key() string { return c.req.key(c.op) }

// OptimizeRequest is the body of /v1/optimize and /v1/pareto.
type OptimizeRequest struct {
	CapacityBytes int    `json:"capacity_bytes"`
	Flavor        string `json:"flavor"`              // "lvt" | "hvt"
	Method        string `json:"method,omitempty"`    // "m1" | "m2" (default)
	Objective     string `json:"objective,omitempty"` // "edp" (default) | "delay" | "energy" | "area" | "padp"
	DWL           bool   `json:"dwl,omitempty"`       // also search divided-wordline segmentation

	// Groups > 1 searches hybrid cell assignments: the rows split into that
	// many groups, each free to carry flavor or its complement. 0 or 1 keep
	// the single-flavor search.
	Groups int `json:"groups,omitempty"`
	// Mux > 1 extends the search with column-mux ratios (sense-amp sharing)
	// up to this power of two. 0 or 1 search the unshared organization only.
	Mux int `json:"mux,omitempty"`

	Alpha *float64 `json:"alpha,omitempty"` // activity α, default 0.5
	Beta  *float64 `json:"beta,omitempty"`  // activity β, default 0.5
	W     int      `json:"w,omitempty"`     // access width in bits, default 64

	TimeoutMS int `json:"timeout_ms,omitempty"` // per-request deadline; capped by the server's

	// Set by normalize: the parsed names and the moved-out deadline.
	flavor    sramco.Flavor
	method    sramco.Method
	objective sramco.Objective
	wait      int
}

func (r *OptimizeRequest) normalize() *apiError {
	if r.CapacityBytes <= 0 {
		return badRequest("capacity_bytes must be positive, got %d", r.CapacityBytes)
	}
	if r.CapacityBytes > maxCapacityBytes {
		return badRequest("capacity_bytes %d exceeds the %d limit", r.CapacityBytes, maxCapacityBytes)
	}
	bits := r.CapacityBytes * 8
	if bits&(bits-1) != 0 {
		return badRequest("capacity_bytes %d must make a power-of-two bit count", r.CapacityBytes)
	}
	var aerr *apiError
	if r.flavor, aerr = canonFlavor(&r.Flavor); aerr != nil {
		return aerr
	}
	if r.method, aerr = canonMethod(&r.Method); aerr != nil {
		return aerr
	}
	var ok bool
	if r.objective, ok = sramco.ObjectiveByName(r.Objective); !ok {
		return badRequest("unknown objective %q (want edp, delay, energy, area or padp)", r.Objective)
	}
	if r.Objective == "" {
		r.Objective = "edp"
	}
	r.Objective = strings.ToLower(r.Objective)
	if aerr := canonGroups(&r.Groups); aerr != nil {
		return aerr
	}
	if aerr := canonMux(&r.Mux); aerr != nil {
		return aerr
	}
	if aerr := canonActivity(&r.Alpha, &r.Beta); aerr != nil {
		return aerr
	}
	if r.W == 0 {
		r.W = 64
	}
	if r.W < 1 || r.W > bits {
		return badRequest("access width w=%d out of range", r.W)
	}
	if r.Groups > bits/r.W {
		// The tallest organization has bits/w rows; more groups than rows can
		// never divide evenly, so the whole search would be empty.
		return badRequest("groups=%d exceeds the %d rows of the tallest organization", r.Groups, bits/r.W)
	}
	if r.Mux > r.W {
		return badRequest("mux=%d exceeds the access width w=%d", r.Mux, r.W)
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	r.wait, r.TimeoutMS = r.TimeoutMS, 0
	return nil
}

func (r *OptimizeRequest) key(op string) string {
	return fmt.Sprintf("%s|cap=%d|flavor=%s|method=%s|obj=%s|dwl=%t|alpha=%g|beta=%g|w=%d|groups=%d|mux=%d",
		op, r.CapacityBytes, r.Flavor, r.Method, r.Objective, r.DWL, *r.Alpha, *r.Beta, r.W, r.Groups, r.Mux)
}

func (r *OptimizeRequest) deadline() int { return r.wait }

// options maps a normalized request onto the search options.
func (r *OptimizeRequest) options() sramco.Options {
	o := sramco.Options{
		CapacityBits: r.CapacityBytes * 8,
		Flavor:       r.flavor,
		Method:       r.method,
		Objective:    r.objective,
		Activity:     sramco.Activity{Alpha: *r.Alpha, Beta: *r.Beta},
		W:            r.W,
		SearchWLSegs: r.DWL,
		HybridGroups: r.Groups,
	}
	if r.Mux > 1 {
		// The zero Space means "defaults" to Options.normalize; widening one
		// bound therefore starts from the full default space.
		sp := sramco.DefaultSearchSpace()
		sp.MuxMax = r.Mux
		o.Space = sp
	}
	return o
}

// EvaluateRequest is the body of /v1/evaluate: one explicit design point.
// The assist rails VDDC/VWL default to the values the method pins for the
// flavor; VSSC defaults to 0.
type EvaluateRequest struct {
	Flavor string `json:"flavor"`
	Method string `json:"method,omitempty"` // pins the default rails

	NR     int `json:"nr"`
	NC     int `json:"nc"`
	Npre   int `json:"npre"`
	Nwr    int `json:"nwr"`
	W      int `json:"w,omitempty"`       // default min(64, nc)
	WLSegs int `json:"wl_segs,omitempty"` // default 1 (flat wordline)
	Mux    int `json:"mux,omitempty"`     // column-mux ratio; 0/1 = one SA per column pair

	// Groups/GroupMask select a hybrid cell assignment: the rows split into
	// Groups equal groups (SA-near first) and set mask bits carry the
	// complement of Flavor. Zero evaluates the single-flavor array.
	Groups    int    `json:"groups,omitempty"`
	GroupMask uint32 `json:"group_mask,omitempty"`

	VDDC *float64 `json:"vddc,omitempty"` // volts; default: method-pinned rail
	VSSC float64  `json:"vssc,omitempty"` // volts, ≤ 0
	VWL  *float64 `json:"vwl,omitempty"`  // volts; default: method-pinned rail

	Alpha *float64 `json:"alpha,omitempty"`
	Beta  *float64 `json:"beta,omitempty"`

	// Set by normalize: the parsed names.
	flavor sramco.Flavor
	method sramco.Method
}

func (r *EvaluateRequest) normalize() *apiError {
	var aerr *apiError
	if r.flavor, aerr = canonFlavor(&r.Flavor); aerr != nil {
		return aerr
	}
	if r.method, aerr = canonMethod(&r.Method); aerr != nil {
		return aerr
	}
	if r.NR <= 0 || r.NC <= 0 {
		return badRequest("nr=%d nc=%d must be positive", r.NR, r.NC)
	}
	// Bound each dimension before multiplying: nr·nc can wrap past zero.
	if capBits := maxCapacityBytes * 8; r.NR > capBits || r.NC > capBits || r.NR > capBits/r.NC {
		bits := new(big.Int).Mul(big.NewInt(int64(r.NR)), big.NewInt(int64(r.NC)))
		return badRequest("nr·nc = %d bits exceeds the %d limit", bits, capBits)
	}
	if r.W == 0 {
		r.W = 64
		if r.NC < r.W {
			r.W = r.NC
		}
	}
	if r.WLSegs == 0 {
		r.WLSegs = 1
	}
	if err := r.geom().Validate(); err != nil {
		return badRequest("%v", err)
	}
	// Validate has rejected any other bad mux; this folds 1 onto 0.
	if aerr := canonMux(&r.Mux); aerr != nil {
		return aerr
	}
	if aerr := canonGroups(&r.Groups); aerr != nil {
		return aerr
	}
	if r.Groups == 0 && r.GroupMask != 0 {
		return badRequest("group_mask=%#x requires groups", r.GroupMask)
	}
	if r.Groups > 1 {
		if r.NR%r.Groups != 0 {
			return badRequest("groups=%d must divide nr=%d", r.Groups, r.NR)
		}
		if r.GroupMask >= 1<<uint(r.Groups) {
			return badRequest("group_mask=%#x has bits beyond groups=%d", r.GroupMask, r.Groups)
		}
	}
	if r.VSSC > 0 {
		return badRequest("vssc=%g must be ≤ 0", r.VSSC)
	}
	return canonActivity(&r.Alpha, &r.Beta)
}

func (r *EvaluateRequest) key(op string) string {
	return fmt.Sprintf("%s|flavor=%s|method=%s|geom=%dx%d:%d:%d:%d:%d|vddc=%s|vssc=%g|vwl=%s|alpha=%g|beta=%g|groups=%d|mask=%d|mux=%d",
		op, r.Flavor, r.Method, r.NR, r.NC, r.W, r.Npre, r.Nwr, r.WLSegs,
		optF(r.VDDC), r.VSSC, optF(r.VWL), *r.Alpha, *r.Beta, r.Groups, r.GroupMask, r.Mux)
}

// deadline is always the server cap: one model evaluation takes
// microseconds, so the request carries no timeout_ms.
func (r *EvaluateRequest) deadline() int { return 0 }

func (r *EvaluateRequest) geom() wire.Geometry {
	return wire.Geometry{NR: r.NR, NC: r.NC, W: r.W, Npre: r.Npre, Nwr: r.Nwr, WLSegs: r.WLSegs, Mux: r.Mux}
}

// design assembles the array design, pinning unspecified rails from the
// framework's (flavor, method) characterization.
func (r *EvaluateRequest) design(fw *sramco.Framework) (sramco.Design, error) {
	vddc, vwl, err := fw.Rails(r.flavor, r.method)
	if err != nil {
		return sramco.Design{}, err
	}
	if r.VDDC != nil {
		vddc = *r.VDDC
	}
	if r.VWL != nil {
		vwl = *r.VWL
	}
	return sramco.Design{
		Geom: r.geom(),
		VDDC: vddc, VSSC: r.VSSC, VWL: vwl,
		Groups: r.Groups, GroupMask: r.GroupMask,
	}, nil
}

// YieldRequest is the body of /v1/yield: a Monte Carlo margin run. With
// ?stream=1 the response is NDJSON checkpoint lines instead of one summary
// object.
type YieldRequest struct {
	Flavor  string   `json:"flavor"`
	N       int      `json:"n"`
	Seed    int64    `json:"seed,omitempty"`
	SigmaVt float64  `json:"sigma_vt,omitempty"` // default mc.DefaultSigmaVt
	Metrics []string `json:"metrics,omitempty"`  // subset of hsnm/rsnm/wm; default all

	// Sampler selects the draw sequence: "mc" (default), "sobol" or "lhs".
	Sampler string `json:"sampler,omitempty"`
	// Tilt is the importance-sampling σ inflation τ in [1, mc.MaxTilt];
	// 0 or 1 disables the tilt.
	Tilt float64 `json:"tilt,omitempty"`
	// RelCI, when positive, stops the run early once every requested
	// metric's 95% CI half-width on μ−3σ is within RelCI·|μ−3σ|; N becomes
	// the sample budget rather than an exact count.
	RelCI float64 `json:"rel_ci,omitempty"`

	TimeoutMS int `json:"timeout_ms,omitempty"`

	// Set by normalize: the parsed names and the moved-out deadline.
	flavor  sramco.Flavor
	metrics mc.Metric
	sampler sramco.MCSampler
	wait    int
}

func (r *YieldRequest) normalize() *apiError {
	var aerr *apiError
	if r.flavor, aerr = canonFlavor(&r.Flavor); aerr != nil {
		return aerr
	}
	if r.N < 2 {
		return badRequest("n must be ≥ 2 samples, got %d", r.N)
	}
	if r.N > maxYieldSamples {
		return badRequest("n=%d exceeds the %d sample limit", r.N, maxYieldSamples)
	}
	if r.SigmaVt < 0 {
		return badRequest("sigma_vt=%g must be non-negative", r.SigmaVt)
	}
	if r.SigmaVt == 0 {
		r.SigmaVt = mc.DefaultSigmaVt
	}
	var err error
	if r.metrics, err = mc.ParseMetrics(r.Metrics); err != nil {
		return badRequest("%v", err)
	}
	// Canonical metric order is fixed, independent of request order.
	r.Metrics = r.metrics.Names()
	if r.Sampler == "" {
		r.Sampler = "mc"
	}
	if r.sampler, err = sramco.ParseMCSampler(strings.ToLower(r.Sampler)); err != nil {
		return badRequest("%v", err)
	}
	r.Sampler = r.sampler.String()
	if r.Tilt == 1 {
		r.Tilt = 0 // canonical "no tilt" spelling, so both hit one cache key
	}
	if r.Tilt != 0 && !(r.Tilt >= 1 && r.Tilt <= mc.MaxTilt) {
		return badRequest("tilt=%g must be in [1, %g]", r.Tilt, mc.MaxTilt)
	}
	if !(r.RelCI >= 0 && r.RelCI < 1) {
		return badRequest("rel_ci=%g must be in [0, 1)", r.RelCI)
	}
	if r.TimeoutMS < 0 {
		return badRequest("timeout_ms must be non-negative, got %d", r.TimeoutMS)
	}
	r.wait, r.TimeoutMS = r.TimeoutMS, 0
	return nil
}

func (r *YieldRequest) key(op string) string {
	return fmt.Sprintf("%s|flavor=%s|n=%d|seed=%d|sigma=%g|metrics=%s|sampler=%s|tilt=%g|relci=%g",
		op, r.Flavor, r.N, r.Seed, r.SigmaVt, strings.Join(r.Metrics, ","), r.Sampler, r.Tilt, r.RelCI)
}

func (r *YieldRequest) deadline() int { return r.wait }

// config maps a normalized request onto the Monte Carlo configuration.
func (r *YieldRequest) config() sramco.MCStreamConfig {
	return sramco.MCStreamConfig{
		Config: sramco.MCConfig{
			Flavor:  r.flavor,
			N:       r.N,
			Seed:    r.Seed,
			SigmaVt: r.SigmaVt,
			Metrics: r.metrics,
			Sampler: r.sampler,
			Tilt:    r.Tilt,
		},
		RelCI: r.RelCI,
	}
}

// canonFlavor parses a flavor name and rewrites it in canonical case.
func canonFlavor(name *string) (sramco.Flavor, *apiError) {
	f, err := sramco.ParseFlavor(*name)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	*name = strings.ToLower(f.String())
	return f, nil
}

// canonMethod parses an assist-method name (default m2) and rewrites it in
// canonical case.
func canonMethod(name *string) (sramco.Method, *apiError) {
	if *name == "" {
		*name = "m2"
	}
	m, err := sramco.ParseMethod(*name)
	if err != nil {
		return 0, badRequest("%v", err)
	}
	*name = strings.ToLower(m.String())
	return m, nil
}

// canonGroups validates a hybrid group count and folds the single-flavor
// spelling 1 onto 0.
func canonGroups(g *int) *apiError {
	if *g < 0 {
		return badRequest("groups must be non-negative, got %d", *g)
	}
	if *g == 1 {
		*g = 0
	}
	if *g > array.MaxGroups || *g&(*g-1) != 0 {
		return badRequest("groups=%d must be a power of two ≤ %d", *g, array.MaxGroups)
	}
	return nil
}

// canonMux validates a column-mux ratio and folds the no-sharing spelling
// 1 onto 0.
func canonMux(m *int) *apiError {
	if *m < 0 {
		return badRequest("mux must be non-negative, got %d", *m)
	}
	if *m == 1 {
		*m = 0
	}
	if *m&(*m-1) != 0 {
		return badRequest("mux=%d must be a power of two", *m)
	}
	return nil
}

// canonActivity fills the default activity factors and range-checks them.
func canonActivity(alpha, beta **float64) *apiError {
	if *alpha == nil {
		*alpha = ptr(0.5)
	}
	if *beta == nil {
		*beta = ptr(0.5)
	}
	if a, b := **alpha, **beta; a < 0 || a > 1 || b < 0 || b > 1 {
		return badRequest("activity alpha=%g beta=%g must be within [0,1]", a, b)
	}
	return nil
}

func ptr[T any](v T) *T { return &v }

// optF renders an optional float for a cache key: "-" when unset.
func optF(v *float64) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf("%g", *v)
}

// asAPIError maps any handler error to its client-visible form.
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	switch {
	case errors.Is(err, sramco.ErrInfeasible):
		return &apiError{Status: http.StatusUnprocessableEntity, Message: err.Error()}
	case errors.Is(err, errDraining):
		return &apiError{Status: http.StatusServiceUnavailable, Message: err.Error()}
	case isDeadline(err):
		return &apiError{Status: http.StatusGatewayTimeout, Message: err.Error()}
	case isCanceled(err):
		return &apiError{Status: http.StatusServiceUnavailable, Message: err.Error()}
	}
	return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
}
