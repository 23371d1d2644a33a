package circuit

import (
	"fmt"
	"math"
	"time"

	"sramco/internal/obs"
)

// TranResult holds a transient waveform set.
type TranResult struct {
	Times []float64
	names map[string]int
	volts [][]float64 // volts[i] is the voltage trace of node index i (incl. ground at 0)
}

// V returns the full voltage trace of a node.
func (r *TranResult) V(node string) []float64 {
	i, ok := r.names[node]
	if !ok {
		panic(fmt.Sprintf("circuit: no node %q in transient result", node))
	}
	return r.volts[i]
}

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
	v := r.V(node)
	for i := 1; i < len(v); i++ {
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
		if a == b {
			return r.Times[i], nil
		}
		frac := (level - a) / (b - a)
		return r.Times[i-1] + frac*(r.Times[i]-r.Times[i-1]), nil
	}
	return 0, fmt.Errorf("circuit: node %q never crosses %g after %g", node, level, tMin)
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
}

// Transient runs a backward-Euler transient analysis. Each step solves the
// nonlinear companion system with the robust Newton strategy; on failure the
// step is recursively halved (up to 12 levels) before giving up. It is a
// TranRunner run that records the waveform of every node.
func (c *Circuit) Transient(opts TranOpts) (*TranResult, error) {
	tr := c.NewTranRunner()
	nn := tr.as.nn
	res := &TranResult{names: make(map[string]int, nn), volts: make([][]float64, nn)}
	for i, name := range c.nodeNames {
		res.names[name] = i
	}
	err := tr.run(opts, func(t float64, x []float64) {
		res.Times = append(res.Times, t)
		for n := range res.volts {
			res.volts[n] = append(res.volts[n], nodeV(x, n))
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
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
// state at t = 0 and after every step; it must not retain x.
func (tr *TranRunner) run(opts TranOpts, record func(t float64, x []float64)) error {
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
	if record != nil {
		record(0, x)
	}

	t := 0.0
	var steps int64
	for t < opts.TStop-opts.DT*1e-9 {
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
			record(t, x)
		}
	}
	mTranSteps.Add(steps)
	hTranDur.Observe(time.Since(start))
	sp.Int("steps", steps)
	sp.Int("halvings", as.halvings)
	sp.End()
	return nil
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
