package circuit

import (
	"fmt"
	"math"
	"time"

	"sramco/internal/obs"
)

// TranResult holds a transient waveform set. Its crossing queries remember
// where each scan ended, so a TranResult is not safe for concurrent use.
type TranResult struct {
	Times []float64
	names map[string]int
	volts [][]float64 // volts[i] is the voltage trace of node index i (incl. ground at 0)

	// scans records, per crossing query, the sample its last scan stopped
	// at: the waveform only grows and its recorded prefix never changes, so
	// a repeated query resumes there instead of rescanning from the start.
	// This keeps a reader asked after every step (TranOpts.Until) O(1)
	// amortized per step. A chain of crossings holds a handful of queries.
	scans []crossScan
}

// crossQuery identifies one crossing search: node a crossing level (b < 0)
// or dropping below node b, in direction edge, at or after tMin.
type crossQuery struct {
	a, b  int
	level float64
	edge  Edge
	tMin  float64
}

type crossScan struct {
	q    crossQuery
	next int // first sample whose interval [next-1, next] is unscanned, or the hit
}

// scan returns where q's scan continues, registering q on first use. The
// pointer is valid until the next scan call.
func (r *TranResult) scan(q crossQuery) *int {
	for k := range r.scans {
		if r.scans[k].q == q {
			return &r.scans[k].next
		}
	}
	r.scans = append(r.scans, crossScan{q: q, next: 1})
	return &r.scans[len(r.scans)-1].next
}

// index returns a node's trace index.
func (r *TranResult) index(node string) int {
	i, ok := r.names[node]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in transient result", node))
	}
	return i
}

// V returns the full voltage trace of a node.
func (r *TranResult) V(node string) []float64 { return r.volts[r.index(node)] }

// AtTime returns the voltage of a node at time t by linear interpolation
// between stored steps, clamping outside the simulated interval.
func (r *TranResult) AtTime(node string, t float64) float64 {
	v := r.V(node)
	ts := r.Times
	if t <= ts[0] {
		return v[0]
	}
	if t >= ts[len(ts)-1] {
		return v[len(v)-1]
	}
	// Binary search for the surrounding interval.
	lo, hi := 0, len(ts)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - ts[lo]) / (ts[hi] - ts[lo])
	return v[lo] + frac*(v[hi]-v[lo])
}

// Edge selects a crossing direction for CrossTime.
type Edge int

const (
	EitherEdge Edge = iota
	RisingEdge
	FallingEdge
)

// CrossTime returns the first time after tMin at which the node crosses
// level in the given direction, or an error if it never does.
func (r *TranResult) CrossTime(node string, level float64, edge Edge, tMin float64) (float64, error) {
	q := crossQuery{a: r.index(node), b: -1, level: level, edge: edge, tMin: tMin}
	v := r.volts[q.a]
	next := r.scan(q)
	for i := *next; i < len(v); i++ {
		if r.Times[i] < tMin {
			continue
		}
		a, b := v[i-1], v[i]
		rising := a < level && b >= level
		falling := a > level && b <= level
		hit := (edge == EitherEdge && (rising || falling)) ||
			(edge == RisingEdge && rising) || (edge == FallingEdge && falling)
		if !hit {
			continue
		}
		*next = i
		if a == b {
			return r.Times[i], nil
		}
		frac := (level - a) / (b - a)
		return r.Times[i-1] + frac*(r.Times[i]-r.Times[i-1]), nil
	}
	*next = len(v)
	return 0, fmt.Errorf("circuit: node %q never crosses %g after %g", node, level, tMin)
}

// CrossBelow returns the first time after tMin at which node a's trace
// drops below node b's, or an error if it never does.
func (r *TranResult) CrossBelow(a, b string, tMin float64) (float64, error) {
	q := crossQuery{a: r.index(a), b: r.index(b), tMin: tMin}
	va, vb := r.volts[q.a], r.volts[q.b]
	next := r.scan(q)
	for i := *next; i < len(va); i++ {
		if r.Times[i] < tMin {
			continue
		}
		d0 := va[i-1] - vb[i-1]
		d1 := va[i] - vb[i]
		if d0 > 0 && d1 <= 0 {
			*next = i
			frac := d0 / (d0 - d1)
			return r.Times[i-1] + frac*(r.Times[i]-r.Times[i-1]), nil
		}
	}
	*next = len(va)
	return 0, fmt.Errorf("circuit: node %q never drops below %q after %g", a, b, tMin)
}

// Final returns the last value of a node's trace.
func (r *TranResult) Final(node string) float64 {
	v := r.V(node)
	return v[len(v)-1]
}

// TranOpts configures a transient analysis.
type TranOpts struct {
	TStop float64 // end time (s); required
	DT    float64 // base step (s); required
	// UIC skips the initial operating-point solve and starts from the
	// SetIC values directly (nodes without ICs start at 0).
	UIC bool
	// Until, when non-nil, ends a Transient early: it sees the waveform
	// recorded so far after every step, and the run stops once it returns
	// true. Stepping is causal, so the stopped waveform is an exact prefix
	// of the full-window one (see Measure). Run records nothing and
	// ignores it.
	Until func(*TranResult) bool
}

// Transient runs a backward-Euler transient analysis. Each step solves the
// nonlinear companion system with the robust Newton strategy; on failure the
// step is recursively halved (up to 12 levels) before giving up. It is a
// TranRunner run that records the waveform of every node and, when
// opts.Until is set, asks it after every step whether to stop.
func (c *Circuit) Transient(opts TranOpts) (*TranResult, error) {
	tr := c.NewTranRunner()
	nn := tr.as.nn
	res := &TranResult{names: make(map[string]int, nn), volts: make([][]float64, nn)}
	for i, name := range c.nodeNames {
		res.names[name] = i
	}
	err := tr.run(opts, func(t float64, x []float64) bool {
		res.Times = append(res.Times, t)
		for n := range res.volts {
			res.volts[n] = append(res.volts[n], nodeV(x, n))
		}
		return opts.Until != nil && opts.Until(res)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Measure runs a transient that stops as soon as read succeeds on the
// recorded prefix, and returns read's answer — bit for bit the answer of the
// full opts window, since stepping is causal and read only looks back.
// read must return an error, not panic, while the crossings it needs are
// missing.
func (c *Circuit) Measure(opts TranOpts, read func(*TranResult) (float64, error)) (float64, error) {
	opts.Until = func(r *TranResult) bool {
		_, err := read(r)
		return err == nil
	}
	res, err := c.Transient(opts)
	if err != nil {
		return 0, err
	}
	return read(res)
}

// TranRunner is the transient engine, bound to one circuit. Transient is a
// TranRunner run that records every step, so Run lands on exactly the final
// state Transient reports by construction. Run itself records no waveforms —
// only the final state survives, which is all the write-margin trip test
// needs — and reuses the Newton workspace across runs.
type TranRunner struct {
	c  *Circuit
	as *assembler
	x  []float64 // state of the current step; the final state after Run
}

// NewTranRunner binds a transient runner to the circuit. The circuit's
// topology must not change afterwards.
func (c *Circuit) NewTranRunner() *TranRunner {
	as := newAssembler(c)
	return &TranRunner{c: c, as: as, x: make([]float64, as.dim)}
}

// Run executes the transient analysis, keeping only the final state. Query it
// with FinalV.
func (tr *TranRunner) Run(opts TranOpts) error { return tr.run(opts, nil) }

// run is the backward-Euler stepping loop. record, when non-nil, sees the
// state at t = 0 and after every step; it must not retain x. The loop ends
// at opts.TStop, or as soon as record returns true.
func (tr *TranRunner) run(opts TranOpts, record func(t float64, x []float64) bool) error {
	if opts.TStop <= 0 || opts.DT <= 0 {
		return fmt.Errorf("circuit: Transient requires positive TStop and DT (got %g, %g)", opts.TStop, opts.DT)
	}
	start := time.Now()
	sp := obs.StartSpan("circuit.transient")
	mTranRuns.Inc()
	as := tr.as
	as.halvings = 0
	x := tr.x
	tr.c.initialGuessInto(x, 0)
	if !opts.UIC {
		xn, err := as.solveRobust(x, 0, nil)
		if err != nil {
			err = fmt.Errorf("circuit: transient initial operating point: %w", err)
			endSpan(&sp, err)
			return err
		}
		copy(x, xn)
	}
	stop := record != nil && record(0, x)

	t := 0.0
	var steps int64
	for !stop && t < opts.TStop-opts.DT*1e-9 {
		dt := math.Min(opts.DT, opts.TStop-t)
		xn, tn, err := tr.c.step(as, x, t, dt, 0)
		if err != nil {
			mTranFails.Inc()
			hTranDur.Observe(time.Since(start))
			endSpan(&sp, err)
			return err
		}
		copy(x, xn)
		t = tn
		steps++
		if record != nil {
			stop = record(t, x)
		}
	}
	mTranSteps.Add(steps)
	hTranDur.Observe(time.Since(start))
	sp.Int("steps", steps)
	sp.Int("halvings", as.halvings)
	sp.Int("stopped", b2i(stop && t < opts.TStop-opts.DT*1e-9))
	sp.End()
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// FinalV returns the named node's voltage at the end of the last Run.
func (tr *TranRunner) FinalV(node string) float64 {
	i, ok := tr.c.nodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in transient result", node))
	}
	return nodeV(tr.x, i)
}

// step advances one (possibly subdivided) time step.
func (c *Circuit) step(as *assembler, x []float64, t, dt float64, depth int) ([]float64, float64, error) {
	tc := &tranCtx{dt: dt, xprev: x}
	xn, err := as.newton(x, t+dt, 0, 1, tc)
	if err == nil {
		return xn, t + dt, nil
	}
	if depth >= 12 {
		return nil, 0, fmt.Errorf("circuit: transient step at t=%g failed after 12 halvings: %w", t, err)
	}
	mTranHalvings.Inc()
	as.halvings++
	half := dt / 2
	xm, tm, err := c.step(as, x, t, half, depth+1)
	if err != nil {
		return nil, 0, err
	}
	return c.step(as, xm, tm, half, depth+1)
}
