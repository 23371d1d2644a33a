package array

import (
	"fmt"
	"math"

	"sramco/internal/periph"
	"sramco/internal/wire"
)

// Evaluator is the chunk-amortized form of Evaluate, built for the search
// hot path. The paper's exhaustive search fixes a (geometry base, assist
// rails) chunk and sweeps only the precharger and write-buffer fin counts
// inside it; every Table-1 wire capacitance except the N_pre/N_wr drain
// terms, both rail components, the WL read/write and COL components, the
// decoder/driver blocks, the sense amplifier, and the cell write
// delay/energy are invariant across that inner sweep. The Evaluator computes
// them once per Prepare and lets Eval fill in only the per-point terms and
// the Eq. (2)-(5) totals.
//
// Bit-identity contract: for any design accepted by both paths,
//
//	Evaluate(t, d, act)  ==  ev.Prepare(d.Geom, rails); ev.Eval(Npre, Nwr)
//
// field for field, at the == level — not within a tolerance. This holds
// because every precomputed value is produced by the exact expression (same
// floating-point operation order) Evaluate used inline, and Eval re-applies
// the remaining per-point operations in Evaluate's order. The property test
// in evaluator_test.go enforces this on randomized designs.
//
// Across chunks the device-model terms (the rail-driver and wordline
// currents, the base-flavor read current and write delay, the decoders) are
// memoized per distinct key, so a worker that prepares tens of thousands of
// units evaluates the transcendental device model only a few dozen times.
// The memo returns the value the same expression produced on first use,
// which keeps the contract above at the == level.
//
// An Evaluator is NOT safe for concurrent use: Prepare mutates its memo
// state. Share the validated construction by calling Clone once per worker;
// clones share the read-only *Tech and revalidate nothing.
type Evaluator struct {
	tech *Tech
	act  Activity

	// Activity-derived constants (set at construction).
	alpha, beta, oneMinusBeta float64

	// Tech-only device terms (set at construction).
	ionP float64             // ION,pfet per fin (precharger, WL read drive)
	iTG  float64             // ION of one write transmission gate fin
	iCol float64             // coefCOL·27·ION,pfet
	drv  periph.DriverResult // 27-fin WL/COL superbuffer

	// Device-model terms keyed on rails and geometry, valid for the
	// lifetime of the Evaluator because its *Tech is immutable.
	memo termMemo

	// Prepared-chunk key: Prepare is memoized on the last (geometry base,
	// rails) so repeated calls inside one chunk cost a few comparisons.
	prepared             bool
	nr, nc, w, segs, mux int
	vddc, vssc, vwl      float64
	geom                 wire.Geometry // base geometry stamped into results

	// Chunk-invariant Table-2 components, ready to copy into each Result.
	parts Breakdown

	// Per-point capacitance builders (Table 1 factorization; see wire.BLFixed
	// and wire.COLFixed).
	muxed   bool
	blFixed float64 // n_r(C_height + C_dn)
	cdp     float64 // C_dp
	sumCd   float64 // C_dn + C_dp
	colBase float64 // n_c·C_width + 27(C_dn + C_dp), muxed only
	colW    float64 // 2·W, muxed only
	sumCg   float64 // C_gn + C_gp

	// Per-point current denominators and voltages.
	iRead   float64 // cell read current at (VDDC, VSSC)
	dvBLRd  float64 // VDDC - VSSC: bitline swing voltage of the read component
	vdd     float64
	deltaVS float64

	// Partial Table-3 delay sums.
	dReadRow  float64 // DRowDec + DRowDrv + DWLRead
	dColBase  float64 // DColDec + DColDrv
	dWriteRow float64 // DRowDec + DRowDrv + DWLWrite (fully invariant)

	// Partial Table-3 energy sums and accounting multipliers.
	eReadBase  float64 // ERowDec + ERowDrv + EWLRead
	eWriteBase float64 // ERowDec + ERowDrv + dcdc·EWLWrite + EColDec + EColDrv
	saE        float64 // saMult·ESenseAmp
	railE      float64 // dcdc·(ECVDD + ECVSS)
	wrCellE    float64 // wrMult·EWriteCell
	blRdMult   float64
	preRdMult  float64
	wrMult     float64
	allCols    bool
	wMult      float64 // W, AllColumns precharge-write weighting
	acMinusW   float64 // activeCols - W

	// Eq. (3)-(5) constants.
	leakCoef float64 // Bits·LeakCell (hybrid: per-group weighted sum)

	// Output-mux (sense-amp sharing) terms. All are exact zeros when the
	// geometry shares no sense amps, so appending them to the existing
	// per-point chains leaves the degenerate results bit-identical.
	muxRatio  int     // normalized sharing ratio (≥ 1)
	blMuxCd   float64 // extra bitline drain cap of the mux TG stack
	dMuxExtra float64 // DMuxSel, appended to the read delay
	eMuxExtra float64 // EMuxSel, appended to the read energy

	// Layout-area terms (wire.Area factorization).
	area0, areaPre, areaWr float64

	// Hybrid per-row-group flavor state (hGroups == 0 when the chunk was
	// prepared for a single global flavor). Group 0 is nearest the sense
	// amps; hBLFix[g] is the effective fixed bitline capacitance seen when
	// group g's cell drives the read (its rows plus the wire up to it), with
	// hBLFix[G-1] exactly blFixed so a uniform mask reproduces the global
	// evaluation bit-identically.
	hGroups int
	hMask   uint32
	hIRead  [MaxGroups]float64
	hBLFix  [MaxGroups]float64

	// §4 rail-settling feasibility (invariant: depends only on rails/WL).
	settles bool

	// Struct-of-arrays lanes of the N_wr-dependent per-point terms, filled
	// lazily by ensureSoA (index i ↔ N_wr = i+1) and invalidated whenever
	// Prepare switches chunks. EvalSweep's inner loop reads them instead of
	// recomputing the column/write-buffer terms per point.
	soaN     int
	soaBL    []float64 // N_wr term of C_BL: fnwr·ΣCd (muxed: (2·fnwr)·ΣCd)
	soaDCOL  []float64 // column-select delay component
	soaECOL  []float64 // column-select energy component
	soaIBLwr []float64 // write-buffer drain current coefBLwr·fnwr·I_TG
}

// NewEvaluator validates the technology and activity once and returns an
// unprepared Evaluator. The returned Evaluator (and its clones) never
// revalidates t, so t must not be mutated while evaluators built from it are
// alive.
func NewEvaluator(t *Tech, act Activity) (*Evaluator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := act.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{}
	e.init(t, act)
	return e, nil
}

// init is the unchecked constructor shared by NewEvaluator and the Evaluate
// wrapper (which performs its own validation in the historical order).
func (e *Evaluator) init(t *Tech, act Activity) {
	e.tech = t
	e.act = act
	e.alpha = act.Alpha
	e.beta = act.Beta
	e.oneMinusBeta = 1 - act.Beta
	e.vdd = t.Vdd
	e.deltaVS = t.DeltaVS
	e.ionP = t.Periph.IONPfet()
	e.iTG = t.Periph.IONTG()
	e.drv = t.Periph.Driver(driveFins)
	e.iCol = coefCOL * driveFins * e.ionP
}

// Clone returns a fresh unprepared Evaluator sharing the validated *Tech.
// Each search worker should own a clone; the shared Tech is read-only. The
// clone starts with empty memo tables of its own, so clones never share
// mutable state.
func (e *Evaluator) Clone() *Evaluator {
	c := *e
	c.memo = termMemo{}
	c.prepared = false
	c.soaN = 0
	c.soaBL, c.soaDCOL, c.soaECOL, c.soaIBLwr = nil, nil, nil, nil
	return &c
}

// Prepare fixes the chunk: the geometry base (N_pre and N_wr in g are
// ignored) and the assist rails, computing everything invariant across the
// inner (N_pre, N_wr) sweep. It validates the rails against the technology
// and the base geometry structurally (with N_pre = N_wr = 1, since validity
// of the base does not depend on the swept fin counts), and rejects a
// non-positive read current exactly as Evaluate does. Repeated calls with
// the same chunk return immediately.
func (e *Evaluator) Prepare(g wire.Geometry, vddc, vssc, vwl float64) error {
	if e.tech == nil {
		return fmt.Errorf("array: Prepare on zero Evaluator (use NewEvaluator)")
	}
	if e.prepared && e.hGroups == 0 &&
		g.NR == e.nr && g.NC == e.nc && g.W == e.w && g.WLSegs == e.segs && g.Mux == e.mux &&
		vddc == e.vddc && vssc == e.vssc && vwl == e.vwl {
		return nil
	}
	return e.prepare(g, vddc, vssc, vwl, nil)
}

// PrepareHybrid is Prepare for a per-row-group flavor assignment: the chunk
// additionally fixes (Groups, Mask, alternate flavor terms). Groups ≤ 1
// degenerates to the global-flavor Prepare (Mask must then be zero). Unlike
// Prepare it never memoizes, because the alternate terms are not part of the
// memo key.
func (e *Evaluator) PrepareHybrid(g wire.Geometry, vddc, vssc, vwl float64, h Hybrid) error {
	if e.tech == nil {
		return fmt.Errorf("array: Prepare on zero Evaluator (use NewEvaluator)")
	}
	if h.Groups <= 1 {
		if h.Mask != 0 {
			return fmt.Errorf("array: GroupMask=%#x requires Groups ≥ 2", h.Mask)
		}
		return e.Prepare(g, vddc, vssc, vwl)
	}
	if err := h.Alt.Validate(); err != nil {
		return err
	}
	if err := (Design{Geom: g, Groups: h.Groups, GroupMask: h.Mask}).validateHybrid(); err != nil {
		return err
	}
	return e.prepare(g, vddc, vssc, vwl, &h)
}

// prepare is the shared chunk computation behind Prepare and PrepareHybrid;
// h == nil selects the single global flavor.
func (e *Evaluator) prepare(g wire.Geometry, vddc, vssc, vwl float64, h *Hybrid) error {
	e.prepared = false

	t := e.tech
	if vddc < t.Vdd {
		return fmt.Errorf("array: VDDC=%g below Vdd=%g", vddc, t.Vdd)
	}
	if vssc > 0 {
		return fmt.Errorf("array: VSSC=%g must be ≤ 0", vssc)
	}
	if vwl < t.Vdd {
		return fmt.Errorf("array: VWL=%g below Vdd=%g (WLOD only)", vwl, t.Vdd)
	}
	base := g
	base.Npre, base.Nwr = 1, 1
	if err := base.Validate(); err != nil {
		return err
	}

	p := t.Periph
	var b Breakdown

	// --- Table 1 capacitances (the N_pre/N_wr-independent ones) ---
	cCVDD := wire.CVDD(g, t.Caps)
	cCVSS := wire.CVSS(g, t.Caps)
	cWL := wire.WL(g, t.Caps)

	// --- Table 2 components invariant across the inner sweep ---
	iCVDD := e.memo.icvdd.get(math.Float64bits(vddc), func() float64 { return p.ICVDD(vddc) })
	iCVSS := e.memo.icvss.get(math.Float64bits(vssc), func() float64 { return p.ICVSS(vssc) })
	iWL := e.memo.iwl.get(math.Float64bits(vwl), func() float64 { return p.IWL(vwl) })
	b.DCVDD, b.ECVDD = component(cCVDD, t.Vdd, vddc-t.Vdd, coefCVDD*railFins*iCVDD)
	b.DCVSS, b.ECVSS = component(cCVSS, t.Vdd, math.Abs(vssc), coefCVSS*railFins*iCVSS)
	if segs := g.Segments(); segs > 1 {
		// Divided wordline: global wire + per-segment AND + local wordline.
		cGWL := wire.GWL(g, t.Caps)
		cLWL := wire.LWL(g, t.Caps)
		lwlFins := float64(wire.LWLDriverFins())
		dAnd := 2 * p.Tau * (2 + p.PInv) // NAND2 + local driver input stage
		eAnd := lwlFins * (t.Caps.Cgn + t.Caps.Cgp) * t.Vdd * t.Vdd
		dg, eg := component(cGWL, t.Vdd, t.Vdd, coefWLrd*driveFins*e.ionP)
		dl, el := component(cLWL, t.Vdd, t.Vdd, coefWLrd*lwlFins*e.ionP)
		b.DWLGlobal, b.DWLLocal = dg, dl
		b.DWLRead = dg + dAnd + dl
		b.EWLRead = eg + eAnd + el
		dlw, elw := component(cLWL, t.Vdd, vwl, coefWLwr*lwlFins*iWL)
		b.DWLWrite = dg + dAnd + dlw
		b.EWLWrite = eg + eAnd + elw
	} else {
		b.DWLRead, b.EWLRead = component(cWL, t.Vdd, t.Vdd, coefWLrd*driveFins*e.ionP)
		b.DWLWrite, b.EWLWrite = component(cWL, t.Vdd, vwl, coefWLwr*driveFins*iWL)
	}
	e.hGroups, e.hMask = 0, 0
	var iRead float64
	if h == nil {
		iRead = e.baseIRead(vddc, vssc)
		if iRead <= 0 {
			return fmt.Errorf("array: non-positive read current %g at VDDC=%g VSSC=%g", iRead, vddc, vssc)
		}
	} else {
		// Each flavor's current is computed at most once per call: the base
		// through the memo, the alternate directly, because Hybrid.Alt may
		// change between calls and func values cannot key a memo.
		full := uint32(1)<<uint(h.Groups) - 1
		var baseI, altI float64
		if h.Mask != full {
			baseI = e.baseIRead(vddc, vssc)
		}
		if h.Mask != 0 {
			altI = h.Alt.IRead(vddc, vssc)
		}
		for gi := 0; gi < h.Groups; gi++ {
			v := baseI
			if h.Mask>>uint(gi)&1 == 1 {
				v = altI
			}
			if v <= 0 {
				return fmt.Errorf("array: non-positive read current %g at VDDC=%g VSSC=%g (group %d)", v, vddc, vssc, gi)
			}
			e.hIRead[gi] = v
		}
		// The far group sees the full bitline; its current feeds the shared
		// component call, which the hybrid max in EvalInto then refines.
		iRead = e.hIRead[h.Groups-1]
	}

	// --- Peripheral blocks ---
	rowDec := e.memo.rowDec.get(g.NR, func() periph.DecoderResult { return p.RowDecoder(g) })
	b.DRowDec, b.ERowDec = rowDec.Delay, rowDec.Energy
	b.DRowDrv, b.ERowDrv = e.drv.Delay, e.drv.Energy
	if g.Muxed() {
		colDec := e.memo.colDec.get([2]int{g.NC, g.W}, func() periph.DecoderResult { return p.ColumnDecoder(g) })
		b.DColDec, b.EColDec = colDec.Delay, colDec.Energy
		b.DColDrv, b.EColDrv = e.drv.Delay, e.drv.Energy
	}
	b.DSenseAmp, b.ESenseAmp = p.SADelay, p.SAEnergy
	b.DWriteCell = e.memo.writeDelay.get(math.Float64bits(vwl), func() float64 { return t.WriteDelayCell(vwl) })
	b.EWriteCell = t.WriteEnergyCell
	if h != nil {
		full := uint32(1)<<uint(h.Groups) - 1
		switch {
		case h.Mask == 0:
			// Uniform base flavor: already exact.
		case h.Mask == full:
			b.DWriteCell = h.Alt.WriteDelayCell(vwl)
			b.EWriteCell = h.Alt.WriteEnergyCell
		default:
			// Mixed: the slower flavor's write dominates the cell flip.
			if ad := h.Alt.WriteDelayCell(vwl); ad > b.DWriteCell {
				b.DWriteCell = ad
				b.EWriteCell = h.Alt.WriteEnergyCell
			}
		}
	}

	// --- Per-point builders (Table 1 factorization) ---
	e.muxed = g.Muxed()
	e.blFixed = wire.BLFixed(g, t.Caps)
	e.cdp = t.Caps.Cdp
	e.sumCd = t.Caps.Cdn + t.Caps.Cdp
	e.colBase = wire.COLFixed(g, t.Caps)
	e.colW = 2 * float64(g.W)
	e.sumCg = t.Caps.Cgn + t.Caps.Cgp
	e.iRead = iRead
	e.dvBLRd = vddc - vssc

	// --- Output mux (sense-amp sharing) ---
	m := g.MuxRatio()
	e.muxRatio = m
	e.blMuxCd = 0
	if m > 1 {
		e.blMuxCd = float64(m) * e.sumCd
	}
	cMuxSel := wire.MuxSel(g, t.Caps)
	b.DMuxSel, b.EMuxSel = component(cMuxSel, t.Vdd, t.Vdd, e.iCol)
	e.dMuxExtra, e.eMuxExtra = b.DMuxSel, b.EMuxSel

	// --- Layout area (wire.Area factorization) ---
	e.area0 = wire.AreaBase(g)
	e.areaPre = wire.AreaPreUnit(g)
	e.areaWr = wire.AreaWrUnit(g)

	// --- Hybrid per-group effective bitline capacitances ---
	if h != nil {
		e.hGroups, e.hMask = h.Groups, h.Mask
		for gi := 0; gi < h.Groups-1; gi++ {
			e.hBLFix[gi] = e.blFixed * (float64(gi+1) / float64(h.Groups))
		}
		e.hBLFix[h.Groups-1] = e.blFixed
	}

	// --- Partial Table-3 sums (prefixes of Evaluate's left-associative
	// chains, so completing them per point reproduces the full sums
	// bit-for-bit) ---
	e.dReadRow = b.DRowDec + b.DRowDrv + b.DWLRead
	e.dColBase = b.DColDec + b.DColDrv
	e.dWriteRow = b.DRowDec + b.DRowDrv + b.DWLWrite

	activeCols := float64(g.NC / g.Segments())
	w := float64(g.W)
	blRdMult, preRdMult, saMult, wrMult := 1.0, 1.0, 1.0, 1.0
	e.allCols = t.Accounting == AllColumns
	if e.allCols {
		blRdMult, preRdMult, saMult, wrMult = activeCols, activeCols, w, w
		if m > 1 {
			// Shared sense amps: only W/m amps fire per access.
			saMult = w / float64(m)
		}
	}
	e.blRdMult, e.preRdMult, e.wrMult = blRdMult, preRdMult, wrMult
	e.wMult = w
	e.acMinusW = activeCols - w
	dcdc := t.DCDCFactor
	e.eReadBase = b.ERowDec + b.ERowDrv + b.EWLRead
	e.saE = saMult * b.ESenseAmp
	e.railE = dcdc * (b.ECVDD + b.ECVSS)
	e.eWriteBase = b.ERowDec + b.ERowDrv + dcdc*b.EWLWrite + b.EColDec + b.EColDrv
	e.wrCellE = wrMult * b.EWriteCell

	e.leakCoef = float64(g.Bits()) * t.LeakCell
	if h != nil {
		full := uint32(1)<<uint(h.Groups) - 1
		switch h.Mask {
		case 0:
			// Uniform base flavor: the single multiply above is already exact.
		case full:
			e.leakCoef = float64(g.Bits()) * h.Alt.LeakCell
		default:
			perGroup := float64(g.Bits() / h.Groups)
			sum := 0.0
			for gi := 0; gi < h.Groups; gi++ {
				lk := t.LeakCell
				if h.Mask>>uint(gi)&1 == 1 {
					lk = h.Alt.LeakCell
				}
				sum += perGroup * lk
			}
			e.leakCoef = sum
		}
	}

	// Rails must settle before WL reaches 50% (§4) — invariant, as neither
	// the rail components nor the WL path depend on N_pre or N_wr.
	wlHalf := b.DRowDec + b.DRowDrv + 0.5*b.DWLRead
	e.settles = math.Max(b.DCVDD, b.DCVSS) <= wlHalf

	e.parts = b
	e.soaN = 0 // the SoA lanes belong to the previous chunk
	e.nr, e.nc, e.w, e.segs, e.mux = g.NR, g.NC, g.W, g.WLSegs, g.Mux
	e.vddc, e.vssc, e.vwl = vddc, vssc, vwl
	e.geom = g
	e.prepared = true
	return nil
}

// hybridBLDelay returns the read bitline delay of a hybrid chunk: the worst
// group, each seeing the bitline wire and drains up to its own rows plus the
// full per-point (precharger, write-buffer, mux) drain terms. The far group
// uses cBL verbatim, so a uniform mask reproduces the global-flavor
// component delay bit-identically.
func (e *Evaluator) hybridBLDelay(cBL float64) float64 {
	last := e.hGroups - 1
	d := cBL * e.deltaVS / e.hIRead[last]
	for gi := 0; gi < last; gi++ {
		ce := (cBL - e.blFixed) + e.hBLFix[gi]
		if dg := ce * e.deltaVS / e.hIRead[gi]; dg > d {
			d = dg
		}
	}
	return d
}

// Eval evaluates one (N_pre, N_wr) point of the prepared chunk, allocating
// the Result. See EvalInto for the allocation-free form.
func (e *Evaluator) Eval(npre, nwr int) (*Result, error) {
	res := new(Result)
	if err := e.EvalInto(npre, nwr, res); err != nil {
		return nil, err
	}
	return res, nil
}

// EvalInto evaluates one (N_pre, N_wr) point of the prepared chunk into res,
// overwriting it completely. Search loops reuse one scratch Result and copy
// it only when a candidate wins, keeping the hot loop allocation-free.
func (e *Evaluator) EvalInto(npre, nwr int, res *Result) error {
	if !e.prepared {
		return fmt.Errorf("array: Eval before a successful Prepare")
	}
	if npre < 1 {
		return fmt.Errorf("wire: N_pre = %d must be ≥ 1", npre)
	}
	if nwr < 1 {
		return fmt.Errorf("wire: N_wr = %d must be ≥ 1", nwr)
	}
	mEvals.Inc()
	b := e.parts
	fnwr := float64(nwr)

	// --- Table 1, per-point: BL and COL (wire.BL / wire.COL op order; the
	// mux drain term is an exact zero add in the degenerate organization) ---
	blBase := e.blFixed + float64(npre+1)*e.cdp
	var cBL, cCOL float64
	if e.muxed {
		cBL = blBase + 2*fnwr*e.sumCd + e.blMuxCd
		cCOL = e.colBase + e.colW*fnwr*e.sumCg
	} else {
		cBL = blBase + fnwr*e.sumCd + e.cdp + e.blMuxCd
	}

	// --- Table 2, per-point components (Evaluate's order) ---
	b.DCOL, b.ECOL = component(cCOL, e.vdd, e.vdd, e.iCol)
	b.DBLRead, b.EBLRead = component(cBL, e.dvBLRd, e.deltaVS, e.iRead)
	if e.hGroups > 1 {
		b.DBLRead = e.hybridBLDelay(cBL)
	}
	b.DBLWrite, b.EBLWrite = component(cBL, e.vdd, e.vdd, coefBLwr*fnwr*e.iTG)
	iPre := coefPRE * float64(npre) * e.ionP
	b.DPreRead, b.EPreRead = component(cBL, e.vdd, e.deltaVS, iPre)
	b.DPreWrite, b.EPreWrite = component(cBL, e.vdd, e.vdd, iPre)

	// --- Table 3 delays ---
	readRow := e.dReadRow + b.DBLRead
	readCol := e.dColBase + b.DCOL
	dRead := math.Max(readRow, readCol) + b.DSenseAmp + b.DPreRead + e.dMuxExtra

	writeCol := e.dColBase + b.DCOL + b.DBLWrite
	dWrite := math.Max(e.dWriteRow, writeCol) + b.DWriteCell + b.DPreWrite

	// --- Table 3 energies ---
	preWrE := b.EPreWrite
	if e.allCols {
		preWrE = e.wMult*b.EPreWrite + e.acMinusW*b.EPreRead
	}
	eRead := e.eReadBase + e.blRdMult*b.EBLRead +
		b.EColDec + b.EColDrv + b.ECOL +
		e.saE + e.preRdMult*b.EPreRead +
		e.railE + e.eMuxExtra
	eWrite := e.eWriteBase + b.ECOL +
		e.wrMult*b.EBLWrite + e.wrCellE + preWrE

	// --- Eqs. (2)-(5), area and the products ---
	dArray := math.Max(dRead, dWrite)
	eSw := e.beta*eRead + e.oneMinusBeta*eWrite
	eLeak := e.leakCoef * dArray
	eArray := e.alpha*eSw + eLeak
	edp := eArray * dArray
	area := (e.area0 + float64(npre)*e.areaPre) + float64(nwr)*e.areaWr

	g := e.geom
	g.Npre, g.Nwr = npre, nwr
	*res = Result{
		Design: Design{Geom: g, VDDC: e.vddc, VSSC: e.vssc, VWL: e.vwl,
			Groups: e.hGroups, GroupMask: e.hMask},
		Activity:          e.act,
		DRead:             dRead,
		DWrite:            dWrite,
		DArray:            dArray,
		ESwRead:           eRead,
		ESwWrite:          eWrite,
		ESw:               eSw,
		ELeak:             eLeak,
		EArray:            eArray,
		EDP:               edp,
		Area:              area,
		PADP:              edp * area,
		RailsSettleInTime: e.settles,
		Parts:             b,
	}
	return nil
}
