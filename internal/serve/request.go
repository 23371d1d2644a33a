package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
}

// normalize validates the request and fills defaults in place, so that two
// requests meaning the same search canonicalize to the same struct (and
// therefore the same cache key).
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
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Flavor = strings.ToLower(flavor.String())
	if r.Method == "" {
		r.Method = "m2"
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Method = strings.ToLower(method.String())
	if _, ok := sramco.ObjectiveByName(r.Objective); !ok {
		return badRequest("unknown objective %q (want edp, delay, energy, area or padp)", r.Objective)
	}
	if r.Objective == "" {
		r.Objective = "edp"
	}
	r.Objective = strings.ToLower(r.Objective)
	if r.Groups < 0 {
		return badRequest("groups must be non-negative, got %d", r.Groups)
	}
	if r.Groups == 1 {
		r.Groups = 0 // canonical "single flavor" spelling
	}
	if r.Groups > 1 {
		if r.Groups > array.MaxGroups || r.Groups&(r.Groups-1) != 0 {
			return badRequest("groups=%d must be a power of two ≤ %d", r.Groups, array.MaxGroups)
		}
	}
	if r.Mux < 0 {
		return badRequest("mux must be non-negative, got %d", r.Mux)
	}
	if r.Mux == 1 {
		r.Mux = 0 // canonical "no sharing" spelling
	}
	if r.Mux > 1 && r.Mux&(r.Mux-1) != 0 {
		return badRequest("mux=%d must be a power of two", r.Mux)
	}
	if r.Alpha == nil {
		r.Alpha = ptr(0.5)
	}
	if r.Beta == nil {
		r.Beta = ptr(0.5)
	}
	if *r.Alpha < 0 || *r.Alpha > 1 || *r.Beta < 0 || *r.Beta > 1 {
		return badRequest("activity alpha=%g beta=%g must be within [0,1]", *r.Alpha, *r.Beta)
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
	return nil
}

// key returns the canonical cache key of a normalized request under the
// given endpoint prefix. The per-request deadline is deliberately excluded:
// it shapes how long a caller waits, not what is computed.
func (r *OptimizeRequest) key(endpoint string) string {
	return fmt.Sprintf("%s|cap=%d|flavor=%s|method=%s|obj=%s|dwl=%t|alpha=%g|beta=%g|w=%d|groups=%d|mux=%d",
		endpoint, r.CapacityBytes, r.Flavor, r.Method, r.Objective, r.DWL, *r.Alpha, *r.Beta, r.W, r.Groups, r.Mux)
}

// options maps a normalized request onto the search options.
func (r *OptimizeRequest) options() (sramco.Options, error) {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return sramco.Options{}, err
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return sramco.Options{}, err
	}
	obj, ok := sramco.ObjectiveByName(r.Objective)
	if !ok {
		return sramco.Options{}, fmt.Errorf("serve: unknown objective %q", r.Objective)
	}
	o := sramco.Options{
		CapacityBits: r.CapacityBytes * 8,
		Flavor:       flavor,
		Method:       method,
		Objective:    obj,
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
	return o, nil
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
}

func (r *EvaluateRequest) normalize() *apiError {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Flavor = strings.ToLower(flavor.String())
	if r.Method == "" {
		r.Method = "m2"
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Method = strings.ToLower(method.String())
	if r.NR <= 0 || r.NC <= 0 {
		return badRequest("nr=%d nc=%d must be positive", r.NR, r.NC)
	}
	if r.NR*r.NC > maxCapacityBytes*8 {
		return badRequest("nr·nc = %d bits exceeds the %d limit", r.NR*r.NC, maxCapacityBytes*8)
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
	if r.Mux == 1 {
		r.Mux = 0 // canonical "no sharing" spelling
	}
	geom := wire.Geometry{NR: r.NR, NC: r.NC, W: r.W, Npre: r.Npre, Nwr: r.Nwr, WLSegs: r.WLSegs, Mux: r.Mux}
	if err := geom.Validate(); err != nil {
		return badRequest("%v", err)
	}
	if r.Groups < 0 {
		return badRequest("groups must be non-negative, got %d", r.Groups)
	}
	if r.Groups == 1 {
		r.Groups = 0 // canonical "single flavor" spelling
	}
	if r.Groups == 0 && r.GroupMask != 0 {
		return badRequest("group_mask=%#x requires groups", r.GroupMask)
	}
	if r.Groups > 1 {
		if r.Groups > array.MaxGroups || r.Groups&(r.Groups-1) != 0 {
			return badRequest("groups=%d must be a power of two ≤ %d", r.Groups, array.MaxGroups)
		}
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
	if r.Alpha == nil {
		r.Alpha = ptr(0.5)
	}
	if r.Beta == nil {
		r.Beta = ptr(0.5)
	}
	if *r.Alpha < 0 || *r.Alpha > 1 || *r.Beta < 0 || *r.Beta > 1 {
		return badRequest("activity alpha=%g beta=%g must be within [0,1]", *r.Alpha, *r.Beta)
	}
	return nil
}

func (r *EvaluateRequest) key() string {
	return fmt.Sprintf("evaluate|flavor=%s|method=%s|geom=%dx%d:%d:%d:%d:%d|vddc=%s|vssc=%g|vwl=%s|alpha=%g|beta=%g|groups=%d|mask=%d|mux=%d",
		r.Flavor, r.Method, r.NR, r.NC, r.W, r.Npre, r.Nwr, r.WLSegs,
		optF(r.VDDC), r.VSSC, optF(r.VWL), *r.Alpha, *r.Beta, r.Groups, r.GroupMask, r.Mux)
}

// design assembles the array design, pinning unspecified rails from the
// framework's (flavor, method) characterization.
func (r *EvaluateRequest) design(fw *sramco.Framework) (sramco.Flavor, sramco.Design, sramco.Activity, error) {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return 0, sramco.Design{}, sramco.Activity{}, err
	}
	method, err := sramco.ParseMethod(r.Method)
	if err != nil {
		return 0, sramco.Design{}, sramco.Activity{}, err
	}
	vddc, vwl, err := fw.Rails(flavor, method)
	if err != nil {
		return 0, sramco.Design{}, sramco.Activity{}, err
	}
	if r.VDDC != nil {
		vddc = *r.VDDC
	}
	if r.VWL != nil {
		vwl = *r.VWL
	}
	d := sramco.Design{
		Geom: wire.Geometry{NR: r.NR, NC: r.NC, W: r.W, Npre: r.Npre, Nwr: r.Nwr, WLSegs: r.WLSegs, Mux: r.Mux},
		VDDC: vddc, VSSC: r.VSSC, VWL: vwl,
		Groups: r.Groups, GroupMask: r.GroupMask,
	}
	return flavor, d, sramco.Activity{Alpha: *r.Alpha, Beta: *r.Beta}, nil
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
}

func (r *YieldRequest) normalize() *apiError {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return badRequest("%v", err)
	}
	r.Flavor = strings.ToLower(flavor.String())
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
	metrics, err := mc.ParseMetrics(r.Metrics)
	if err != nil {
		return badRequest("%v", err)
	}
	// Canonical metric order is fixed, independent of request order.
	r.Metrics = metrics.Names()
	if r.Sampler == "" {
		r.Sampler = "mc"
	}
	sampler, err := sramco.ParseMCSampler(strings.ToLower(r.Sampler))
	if err != nil {
		return badRequest("%v", err)
	}
	r.Sampler = sampler.String()
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
	return nil
}

func (r *YieldRequest) key() string {
	return fmt.Sprintf("yield|flavor=%s|n=%d|seed=%d|sigma=%g|metrics=%s|sampler=%s|tilt=%g|relci=%g",
		r.Flavor, r.N, r.Seed, r.SigmaVt, strings.Join(r.Metrics, ","), r.Sampler, r.Tilt, r.RelCI)
}

// config maps a normalized request onto the Monte Carlo configuration.
func (r *YieldRequest) config() (sramco.MCStreamConfig, error) {
	flavor, err := sramco.ParseFlavor(r.Flavor)
	if err != nil {
		return sramco.MCStreamConfig{}, err
	}
	metrics, err := mc.ParseMetrics(r.Metrics)
	if err != nil {
		return sramco.MCStreamConfig{}, err
	}
	sampler, err := sramco.ParseMCSampler(r.Sampler)
	if err != nil {
		return sramco.MCStreamConfig{}, err
	}
	return sramco.MCStreamConfig{
		Config: sramco.MCConfig{
			Flavor:  flavor,
			N:       r.N,
			Seed:    r.Seed,
			SigmaVt: r.SigmaVt,
			Metrics: metrics,
			Sampler: sampler,
			Tilt:    r.Tilt,
		},
		RelCI: r.RelCI,
	}, nil
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
