package circuit

import "sramco/internal/obs"

// Solver metrics. Counters are deterministic for a given workload (the
// same solves perform the same iterations regardless of scheduling);
// histograms record wall time and are environmental. The hot Newton loop
// accumulates into plain locals and flushes one atomic add per solve, so
// the instrumentation is allocation-free and contention-free.
var (
	mNewtonIters    = obs.NewCounter("circuit.newton.iterations")
	mNewtonSingular = obs.NewCounter("circuit.newton.singular_jacobians")
	mNewtonFails    = obs.NewCounter("circuit.newton.failures")
	mGminSteppings  = obs.NewCounter("circuit.newton.gmin_steppings")
	mSrcSteppings   = obs.NewCounter("circuit.newton.source_steppings")

	mDCOps         = obs.NewCounter("circuit.dc.op_solves")
	mDCSweepPoints = obs.NewCounter("circuit.dc.sweep_points")

	mTranRuns     = obs.NewCounter("circuit.tran.runs")
	mTranSteps    = obs.NewCounter("circuit.tran.steps")
	mTranHalvings = obs.NewCounter("circuit.tran.step_halvings")
	mTranFails    = obs.NewCounter("circuit.tran.failures")

	hTranDur = obs.NewHistogram("circuit.tran.duration")
	hDCOpDur = obs.NewHistogram("circuit.dc.op_duration")
)

// endSpan closes sp, tagging it with the error when the analysis failed, so
// failed solves still account for their wall time in a trace.
func endSpan(sp *obs.Span, err error) {
	if err != nil && sp.On() {
		sp.Str("err", err.Error())
	}
	sp.End()
}
