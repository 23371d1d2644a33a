package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sramco"
	"sramco/internal/catalog"
	"sramco/internal/obs"
	"sramco/internal/serve"
	"sramco/internal/wire"
)

// The serve probe's open loop: Poisson arrivals (independent users) at a
// rate below the in-process server's capacity, from one process with at
// most nproc connections.
const (
	nominalRate = 300.0                   // requests/s
	loadSpan    = 1500 * time.Millisecond // length of the open-loop run
	requestCap  = 10 * time.Second        // client timeout
	clientConns = 2
	repeatKeys  = 384 // off-grid keys revisited; above the 256-entry LRU
	evalKeys    = 96
)

// optimizeBody is a /v1/optimize request as the generator spells it. Each
// key has exactly one spelling, so path+body identifies a cache key.
type optimizeBody struct {
	CapacityBytes int      `json:"capacity_bytes"`
	Flavor        string   `json:"flavor"`
	Method        string   `json:"method"`
	Objective     string   `json:"objective"`
	Alpha         *float64 `json:"alpha,omitempty"`
	Beta          *float64 `json:"beta,omitempty"`
}

func (b optimizeBody) options() (sramco.Options, error) {
	fl, err := sramco.ParseFlavor(b.Flavor)
	if err != nil {
		return sramco.Options{}, err
	}
	m, err := sramco.ParseMethod(b.Method)
	if err != nil {
		return sramco.Options{}, err
	}
	obj, ok := sramco.ObjectiveByName(b.Objective)
	if !ok {
		return sramco.Options{}, fmt.Errorf("objective %q", b.Objective)
	}
	o := sramco.Options{CapacityBits: b.CapacityBytes * 8, Flavor: fl, Method: m, Objective: obj}
	if b.Alpha != nil {
		o.Activity = sramco.Activity{Alpha: *b.Alpha, Beta: *b.Beta}
	}
	return o, nil
}

// evaluateBody is a /v1/evaluate request as the generator spells it.
type evaluateBody struct {
	Flavor string  `json:"flavor"`
	Method string  `json:"method"`
	NR     int     `json:"nr"`
	NC     int     `json:"nc"`
	Npre   int     `json:"npre"`
	Nwr    int     `json:"nwr"`
	VSSC   float64 `json:"vssc"`
}

func (b evaluateBody) design(fw *sramco.Framework) (sramco.Flavor, sramco.Design, error) {
	fl, err := sramco.ParseFlavor(b.Flavor)
	if err != nil {
		return 0, sramco.Design{}, err
	}
	vddc, vwl, err := fw.Rails(fl, sramco.M2)
	if err != nil {
		return 0, sramco.Design{}, err
	}
	w := 64
	if b.NC < w {
		w = b.NC
	}
	return fl, sramco.Design{
		Geom: wire.Geometry{NR: b.NR, NC: b.NC, W: w, Npre: b.Npre, Nwr: b.Nwr, WLSegs: 1},
		VDDC: vddc, VSSC: b.VSSC, VWL: vwl,
	}, nil
}

// request is one generated request. A batch request carries its items as
// sub-requests so each item is checked like the standalone call.
type request struct {
	tier  string // catalog | repeat | fresh | evaluate | batch
	path  string
	body  []byte
	opt   *optimizeBody
	ev    *evaluateBody
	items []*request
}

func (r *request) key() string { return r.path + " " + string(r.body) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generator's own structs always encode
	}
	return b
}

func optimizeReq(tier string, b optimizeBody) *request {
	return &request{tier: tier, path: "/v1/optimize", body: mustJSON(b), opt: &b}
}

// reqGen draws the serve probe's requests from a seed: sramload's default
// weights (optimize 6 : evaluate 3 : batch 1), with optimizes split over
// three key tiers — catalog-grid keys, a repeated off-grid set larger than
// the LRU, and never-repeated off-grid keys that always need a live search.
type reqGen struct {
	rng     *rand.Rand
	catalog []*request
	repeat  []*request
	evals   []*request
	fresh   map[string]bool
}

// newReqGen builds the key pools. catalogHas reports whether the catalog
// answers a request body, so the catalog tier holds only keys it serves.
func newReqGen(fw *sramco.Framework, seed int64, catalogHas func(*request) bool) (*reqGen, error) {
	g := &reqGen{rng: rand.New(rand.NewSource(seed)), fresh: map[string]bool{}}
	grid := serve.DefaultCatalogGrid()
	for _, c := range grid.CapacitiesBytes {
		for _, fl := range grid.Flavors {
			for _, m := range grid.Methods {
				for _, obj := range grid.Objectives {
					r := optimizeReq("catalog", optimizeBody{CapacityBytes: c, Flavor: fl, Method: m, Objective: obj})
					if catalogHas(r) {
						g.catalog = append(g.catalog, r)
					}
				}
			}
		}
	}
	if len(g.catalog) == 0 {
		return nil, errors.New("the catalog answers none of its grid keys")
	}
	seen := map[string]bool{}
	for len(g.repeat) < repeatKeys {
		a := 0.1 * float64(1+g.rng.Intn(9))
		if a == 0.5 {
			continue // the grid's default activity
		}
		bt := 0.1 * float64(1+g.rng.Intn(9))
		r := optimizeReq("repeat", optimizeBody{
			CapacityBytes: 1024 << g.rng.Intn(5), Flavor: []string{"lvt", "hvt"}[g.rng.Intn(2)],
			Method: "m2", Objective: []string{"edp", "padp"}[g.rng.Intn(2)], Alpha: &a, Beta: &bt,
		})
		if !seen[r.key()] {
			seen[r.key()] = true
			g.repeat = append(g.repeat, r)
		}
	}
	for tries := 0; len(g.evals) < evalKeys; tries++ {
		if tries > 100*evalKeys {
			return nil, errors.New("could not draw valid evaluate designs")
		}
		bits := 8192 << g.rng.Intn(5)
		nr := 16 << g.rng.Intn(6)
		nc := bits / nr
		if nc < 16 || nc > 1024 {
			continue
		}
		b := evaluateBody{
			Flavor: []string{"lvt", "hvt"}[g.rng.Intn(2)], Method: "m2", NR: nr, NC: nc,
			Npre: 1 + g.rng.Intn(50), Nwr: 1 + g.rng.Intn(20), VSSC: -0.01 * float64(g.rng.Intn(25)),
		}
		fl, d, err := b.design(fw)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Evaluate(fl, d, sramco.Activity{Alpha: 0.5, Beta: 0.5}); err != nil {
			continue // the model rejects this point; draw another
		}
		r := &request{tier: "evaluate", path: "/v1/evaluate", body: mustJSON(b), ev: &b}
		if !seen[r.key()] {
			seen[r.key()] = true
			g.evals = append(g.evals, r)
		}
	}
	return g, nil
}

// freshReq returns an optimize key the generator has never produced.
func (g *reqGen) freshReq() *request {
	for {
		a := math.Round((0.05+0.9*g.rng.Float64())*1e6) / 1e6
		bt := math.Round((0.05+0.9*g.rng.Float64())*1e6) / 1e6
		r := optimizeReq("fresh", optimizeBody{
			CapacityBytes: 1024 << g.rng.Intn(5), Flavor: []string{"lvt", "hvt"}[g.rng.Intn(2)],
			Method: "m2", Objective: "edp", Alpha: &a, Beta: &bt,
		})
		if !g.fresh[r.key()] {
			g.fresh[r.key()] = true
			return r
		}
	}
}

func (g *reqGen) pick(pool []*request) *request { return pool[g.rng.Intn(len(pool))] }

// next draws the next request of the mix.
func (g *reqGen) next() *request {
	switch op := g.rng.Intn(10); {
	case op < 6:
		switch t := g.rng.Float64(); {
		case t < 0.5:
			return g.pick(g.catalog)
		case t < 0.8:
			return g.pick(g.repeat)
		default:
			return g.freshReq()
		}
	case op < 9:
		return g.pick(g.evals)
	default:
		items := []*request{g.pick(g.evals), g.pick(g.evals), g.pick(g.evals), g.pick(g.repeat)}
		var body bytes.Buffer
		for _, it := range items {
			op := "evaluate"
			if it.opt != nil {
				op = "optimize"
			}
			// Splice the op tag into the item's own JSON object.
			body.WriteString(`{"op":"` + op + `",`)
			body.Write(it.body[1:])
			body.WriteByte('\n')
		}
		return &request{tier: "batch", path: "/v1/batch", body: body.Bytes(), items: items}
	}
}

// schedule returns n Poisson due times at rate per second.
func schedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// serveRig is an in-process sramd: the server with its catalog installed,
// behind a loopback http.Server, and a client limited to clientConns
// connections.
type serveRig struct {
	fw     *sramco.Framework
	srv    *serve.Server
	hs     *http.Server
	done   chan struct{}
	url    string
	client *http.Client
}

func startRig(fw *sramco.Framework) (*serveRig, error) {
	srv := serve.New(fw, serve.Config{})
	cat, err := srv.BuildCatalog(context.Background(), serve.DefaultCatalogGrid())
	if err != nil {
		return nil, err
	}
	srv.SetCatalog(cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{
		fw: fw, srv: srv, done: make(chan struct{}),
		hs:  &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: requestCap},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
		}},
	}
	go func() {
		defer close(rig.done)
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// The first operation can run once the server answers.
	resp, err := rig.client.Get(rig.url + "/healthz")
	if err != nil {
		rig.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rig.close()
		return nil, fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return rig, nil
}

func (r *serveRig) close() {
	r.client.CloseIdleConnections()
	_ = r.hs.Close()
	<-r.done
	ctx, cancel := context.WithTimeout(context.Background(), requestCap)
	defer cancel()
	_ = r.srv.Drain(ctx) // in-flight fills end with the drain deadline at worst
}

// catalogHas reports whether the rig's catalog answers the request, using a
// throwaway server so the probe fills no cache the workload will use.
func catalogHas(fw *sramco.Framework, cat *catalog.Catalog) func(*request) bool {
	s := serve.New(fw, serve.Config{CacheSize: -1})
	s.SetCatalog(cat)
	h := s.Handler()
	w := newProbeWriter()
	return func(r *request) bool {
		req, err := http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		if err != nil {
			return false
		}
		w.reset()
		h.ServeHTTP(w, req)
		return w.code == http.StatusOK && w.h.Get("X-Cache") == "catalog"
	}
}

// sample is one request of an open-loop run, times relative to its start.
type sample struct {
	req       *request
	due, sent time.Duration
	status    int
	cache     string
	body      []byte
	err       error
}

// loadResult is one open-loop run.
type loadResult struct {
	samples     []sample
	backlogMax  int
	inflightMax float64
}

// openLoop sends reqs[i] at due[i] from clientConns senders.
func (r *serveRig) openLoop(reqs []*request, due []time.Duration) *loadResult {
	res := &loadResult{samples: make([]sample, len(reqs))}
	var next atomic.Int64
	var backlogMax atomic.Int64
	start := time.Now()

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			if v := obs.Default().GaugeValue("serve.inflight"); v > res.inflightMax {
				res.inflightMax = v
			}
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := &res.samples[i]
				s.req, s.due = reqs[i], due[i]
				waitUntil(start.Add(due[i]))
				s.sent = time.Since(start)
				// Requests already due but not yet taken by a sender.
				b := int64(sort.Search(len(due), func(j int) bool { return due[j] > s.sent }) - i - 1)
				for cur := backlogMax.Load(); b > cur && !backlogMax.CompareAndSwap(cur, b); cur = backlogMax.Load() {
				}
				r.send(s)
			}
		}()
	}
	wg.Wait()
	close(stopPoll)
	pollWG.Wait()
	res.backlogMax = int(backlogMax.Load())
	return res
}

// waitUntil returns at t. The runtime's sleep overshoots by up to a
// millisecond, which would show as generator lag, so the last
// millisecond is spent yielding: runnable server goroutines still run, and
// only otherwise-idle CPU time is spent polling the clock.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func (r *serveRig) send(s *sample) {
	ctx, cancel := context.WithTimeout(context.Background(), requestCap)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+s.req.path, bytes.NewReader(s.req.body))
	if err != nil {
		s.err = err
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	s.body, s.err = io.ReadAll(resp.Body)
}

// bodyChecker checks answers. Every answer to one key must be the same
// bytes, whichever tier served it; verify then checks one answer per key
// against the library (or, for catalog keys, against a live fill).
type bodyChecker struct {
	first    map[string][]byte
	reqs     map[string]*request
	verified map[string]bool
	fail     failures
}

func newBodyChecker() *bodyChecker {
	return &bodyChecker{first: map[string][]byte{}, reqs: map[string]*request{}, verified: map[string]bool{}}
}

func (c *bodyChecker) record(r *request, body []byte) {
	k := r.key()
	if prev, ok := c.first[k]; ok {
		if !bytes.Equal(prev, body) {
			c.fail.add("%s: answer differs from an earlier answer to the same key", k)
		}
		return
	}
	c.first[k] = append([]byte(nil), body...)
	c.reqs[k] = r
}

// check records a successful response; batch bodies are split per item.
func (c *bodyChecker) check(s *sample) {
	if s.req.tier != "batch" {
		c.record(s.req, s.body)
		return
	}
	var got int
	dec := json.NewDecoder(bytes.NewReader(s.body))
	for dec.More() {
		var line struct {
			Index  int             `json:"index"`
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		}
		if err := dec.Decode(&line); err != nil {
			c.fail.add("batch: bad NDJSON line: %v", err)
			return
		}
		if line.Index < 0 || line.Index >= len(s.req.items) || line.Status != http.StatusOK {
			c.fail.add("batch: item %d answered status %d", line.Index, line.Status)
			continue
		}
		got++
		c.record(s.req.items[line.Index], line.Body)
	}
	if got != len(s.req.items) {
		c.fail.add("batch: %d of %d items answered", got, len(s.req.items))
	}
}

// verify checks one answer per key. Catalog keys must be byte-equal to a
// live fill of the same key; other optimizes must match a direct library
// search, evaluates a direct library evaluation.
func (c *bodyChecker) verify(fw *sramco.Framework) {
	live := serve.New(fw, serve.Config{}).Handler()
	w := newProbeWriter()
	var keys []string
	for k := range c.first {
		if !c.verified[k] {
			keys = append(keys, k)
			c.verified[k] = true
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		r, body := c.reqs[k], c.first[k]
		switch {
		case r.tier == "catalog":
			req, err := http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			if err != nil {
				c.fail.add("%s: %v", k, err)
				continue
			}
			w.reset()
			w.keep = true
			live.ServeHTTP(w, req)
			if w.code != http.StatusOK || w.h.Get("X-Cache") != "miss" || !bytes.Equal(w.buf.Bytes(), body) {
				c.fail.add("%s: catalog answer is not byte-equal to a live fill (live status %d, cache %q)", k, w.code, w.h.Get("X-Cache"))
			}
		case r.opt != nil:
			var got serve.OptimizeResponse
			if err := json.Unmarshal(body, &got); err != nil {
				c.fail.add("%s: %v", k, err)
				continue
			}
			opts, err := r.opt.options()
			if err != nil {
				c.fail.add("%s: %v", k, err)
				continue
			}
			want, err := fw.OptimizeWithContext(context.Background(), opts)
			if err != nil {
				c.fail.add("%s: library search: %v", k, err)
				continue
			}
			obj, _ := sramco.ObjectiveByName(r.opt.Objective)
			if got.Design != want.Best.Design || got.Result == nil || !relClose(obj(got.Result), obj(want.Best.Result), objRelTol) {
				c.fail.add("%s: served optimum %+v differs from the library's %+v", k, got.Design, want.Best.Design)
			}
		case r.ev != nil:
			var got serve.EvaluateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				c.fail.add("%s: %v", k, err)
				continue
			}
			fl, d, err := r.ev.design(fw)
			if err != nil {
				c.fail.add("%s: %v", k, err)
				continue
			}
			want, err := fw.Evaluate(fl, d, sramco.Activity{Alpha: 0.5, Beta: 0.5})
			if err != nil {
				c.fail.add("%s: library evaluate: %v", k, err)
				continue
			}
			if !relClose(got.EDP, want.EDP, objRelTol) || !relClose(got.DelayS, want.DArray, objRelTol) {
				c.fail.add("%s: served EDP %g, library %g", k, got.EDP, want.EDP)
			}
		}
	}
}

// probeWriter is a reusable http.ResponseWriter for timing the handler
// without httptest; it keeps the body only when asked.
type probeWriter struct {
	h    http.Header
	code int
	keep bool
	buf  bytes.Buffer
}

func newProbeWriter() *probeWriter { return &probeWriter{h: http.Header{}, code: http.StatusOK} }

func (w *probeWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.keep = false
	w.buf.Reset()
}

func (w *probeWriter) Header() http.Header { return w.h }

func (w *probeWriter) WriteHeader(code int) { w.code = code }

func (w *probeWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.buf.Write(b)
	}
	return len(b), nil
}

// servedLayers derives the catalog.hit_frac, serve.* and load.* values of
// an open-loop run: the X-Cache tiers of its answers, generator lag and
// backlog, and peak in-flight requests.
func servedLayers(lr *loadResult, layer map[string]float64) {
	tiers := map[string]int{}
	var lags []time.Duration
	answered := 0
	for _, s := range lr.samples {
		lags = append(lags, s.sent-s.due)
		if s.req.tier == "batch" {
			continue
		}
		answered++
		tiers[s.cache]++
	}
	if answered == 0 {
		return
	}
	n := float64(answered)
	layer["catalog.hit_frac"] = float64(tiers["catalog"]) / n
	layer["serve.hit_frac"] = float64(tiers["hit"]) / n
	layer["serve.miss_frac"] = float64(tiers["miss"]) / n
	layer["serve.coalesced_frac"] = float64(tiers["coalesced"]) / n
	layer["load.lag_p99_ms"] = ms(quantile(lags, 0.99))
	layer["load.backlog_max"] = float64(lr.backlogMax)
	layer["serve.inflight_max"] = lr.inflightMax
}

// probeServe times the serve handler directly (catalog, LRU-hit and
// live-fill tiers), the same LRU hits over loopback, and a short open-loop
// run at the nominal rate, checking every answer.
func probeServe(fw *sramco.Framework, cfg runConfig, layer map[string]float64) error {
	rig, err := startRig(fw)
	if err != nil {
		return err
	}
	defer rig.close()
	gen, err := newReqGen(fw, cfg.seed, catalogHas(fw, rig.srv.Catalog()))
	if err != nil {
		return err
	}
	chk := newBodyChecker()
	h := rig.srv.Handler()
	w := newProbeWriter()
	handlerTimes := func(reqs []*request, wantCache string) ([]time.Duration, error) {
		hr := make([]*http.Request, len(reqs))
		for i, r := range reqs {
			var err error
			if hr[i], err = http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)); err != nil {
				return nil, err
			}
		}
		ds := make([]time.Duration, len(reqs))
		for i, req := range hr {
			w.reset()
			w.keep = true
			t0 := time.Now()
			h.ServeHTTP(w, req)
			ds[i] = time.Since(t0)
			if w.code != http.StatusOK || w.h.Get("X-Cache") != wantCache {
				return nil, fmt.Errorf("%s: status %d, X-Cache %q, want %q", reqs[i].path, w.code, w.h.Get("X-Cache"), wantCache)
			}
			chk.check(&sample{req: reqs[i], body: w.buf.Bytes()})
		}
		return ds, nil
	}
	const reps = 400
	var catReqs, hitReqs, fresh []*request
	for i := 0; i < reps; i++ {
		catReqs = append(catReqs, gen.catalog[i%len(gen.catalog)])
		hitReqs = append(hitReqs, gen.repeat[i%32])
	}
	for i := 0; i < 64; i++ {
		fresh = append(fresh, gen.freshReq())
	}
	ds, err := handlerTimes(catReqs, "catalog")
	if err != nil {
		return err
	}
	layer["serve.handler_us.catalog"] = float64(quantile(ds, 0.5)) / 1e3
	if _, err := handlerTimes(hitReqs[:32], "miss"); err != nil {
		return err
	}
	ds, err = handlerTimes(hitReqs, "hit")
	if err != nil {
		return err
	}
	hitP50 := quantile(ds, 0.5)
	layer["serve.handler_us.hit"] = float64(hitP50) / 1e3
	ds, err = handlerTimes(fresh, "miss")
	if err != nil {
		return err
	}
	layer["serve.fill_ms"] = ms(quantile(ds, 0.5))

	var loop []time.Duration
	for _, r := range hitReqs {
		s := sample{req: r}
		t0 := time.Now()
		rig.send(&s)
		loop = append(loop, time.Since(t0))
		if s.err != nil || s.status != http.StatusOK || s.cache != "hit" {
			return fmt.Errorf("loopback hit: status %d, X-Cache %q, error %v", s.status, s.cache, s.err)
		}
		chk.check(&s)
	}
	layer["serve.http_overhead_us"] = float64(quantile(loop, 0.5)-hitP50) / 1e3

	due := schedule(rand.New(rand.NewSource(cfg.seed^0x10ad)), nominalRate, loadSpan)
	reqs := make([]*request, len(due))
	for i := range reqs {
		reqs[i] = gen.next()
	}
	lr := rig.openLoop(reqs, due)
	for i := range lr.samples {
		s := &lr.samples[i]
		if s.err != nil || s.status != http.StatusOK {
			return fmt.Errorf("open loop %s: status %d, error %v", s.req.path, s.status, s.err)
		}
		chk.check(s)
	}
	servedLayers(lr, layer)

	chk.verify(fw)
	if chk.fail.n > 0 {
		return fmt.Errorf("%d wrong answers, first: %s", chk.fail.n, chk.fail.logs[0])
	}
	return probeCatalog(fw, layer)
}
