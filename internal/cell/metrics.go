package cell

import "sramco/internal/obs"

// Cell-characterization metrics: one VTC sweep per butterfly branch, one
// transient flip probe per write-trip bisection step, one rail probe per
// minimum-rail binary-search evaluation. All counters are deterministic
// for a given workload.
var (
	mVTCSweeps      = obs.NewCounter("cell.vtc.sweeps")
	mSNMExtractions = obs.NewCounter("cell.snm.extractions")
	mWriteProbes    = obs.NewCounter("cell.write.trip_probes")
	mWriteTrips     = obs.NewCounter("cell.write.trip_searches")
	mRailProbes     = obs.NewCounter("cell.rail.search_probes")
)

// endSpan closes sp, tagging it with the error when the measurement failed,
// so failed probes and write-fail samples still show up in a trace.
func endSpan(sp *obs.Span, err error) {
	if err != nil && sp.On() {
		sp.Str("err", err.Error())
	}
	sp.End()
}
