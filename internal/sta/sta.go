// Package sta implements graph-based static timing analysis over the
// placed-and-routed design: NLDM cell arcs with slew propagation, extracted
// net Elmore delays, clock insertion delays from CTS, and setup checks at
// the flops. Its headline output is the achieved clock frequency — the
// metric the paper sweeps in Figs. 9-11 and Table III.
//
// The analysis is split into a reusable Engine and per-call inputs. The
// Engine levelizes the combinational graph once and snapshots every
// netlist-derived lookup (timing arcs, net fanin/fanout indices, flop
// endpoints) into flat Seq-indexed arrays; repeated Analyze calls then
// propagate arrivals over epoch-stamped scratch without allocating.
//
// On top of the reusable build, the Engine is incremental: Analyze retains
// the full propagation state (per-net arrivals/slews plus a per-endpoint
// setup table), Fork clones that state into an independent child sharing
// the immutable graph tables, and ReanalyzeStateCtx re-propagates only the
// forward fanout cones of nets whose RC changed, with SlackStats reducing
// the result — the unit of work behind the Monte Carlo overlay-variation
// study, where each sample perturbs a subset of the nets.
package sta

import (
	"context"
	"fmt"
	"math"

	"repro/internal/extract"
	"repro/internal/liberty"
	"repro/internal/netlist"
)

// cancelCheckEvery is the interval, in propagated cells, between
// cancellation checks inside the levelized loops: a cancel lands within a
// bounded number of inner iterations without the check ever showing up in
// a profile. Must be a power of two.
const cancelCheckEvery = 4096

// cancelled builds the error a cancelled propagation returns. The engine's
// retained state is partially updated at that point, so callers of the
// Ctx variants also see hasBase dropped: the next ReanalyzeStateCtx falls
// back to a full pass instead of trusting a half-propagated basis.
func cancelled(ctx context.Context) error {
	return fmt.Errorf("sta: cancelled during propagation: %w", ctx.Err())
}

// Options configures analysis.
type Options struct {
	InputSlewPs   float64 // slew at primary inputs and flop clock pins
	PortLoadFF    float64 // load on output ports
	ClockSlewPs   float64
	DefaultSkewPs float64 // used when no CTS arrivals are provided
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options {
	return Options{InputSlewPs: 15, PortLoadFF: 1.0, ClockSlewPs: 12, DefaultSkewPs: 5}
}

// Input bundles the per-analysis design view. Both slices are dense,
// indexed by the netlist's stable Seq ids.
type Input struct {
	// NetRC holds extracted parasitics indexed by Net.Seq. A nil slice or
	// a nil entry falls back to a lumped estimate from pin caps only.
	NetRC []*extract.NetRC
	// ClockArrivalPs holds clock insertion delays (ps) indexed by
	// Instance.Seq (only flop entries are read). A nil slice means no CTS
	// ran; endpoint checks then charge Options.DefaultSkewPs instead.
	ClockArrivalPs []float64
}

// PathPoint is one hop of the reported critical path.
type PathPoint struct {
	Inst      string
	ArrivalPs float64
}

// Result is the analysis outcome.
type Result struct {
	MinPeriodPs     float64
	AchievedFreqGHz float64
	CriticalPath    []PathPoint
	MaxArrivalPs    float64
	WorstSlewPs     float64
	// RegToReg is the number of constrained endpoint checks.
	RegToReg int
}

// Clone returns a detached copy of the Result. Engine.Analyze returns a
// view into the Engine's reusable storage; results that outlive the
// Engine (or the next Analyze call) should be cloned so they don't pin
// the Engine's flat tables in memory.
func (r *Result) Clone() *Result {
	out := *r
	out.CriticalPath = append([]PathPoint(nil), r.CriticalPath...)
	return &out
}

// ReStats summarizes what the last Analyze/ReanalyzeStateCtx call on an
// Engine actually did — the observability hook incremental tests and
// benchmarks assert against.
type ReStats struct {
	// Incremental is true when the call took the cone-re-propagation
	// path; false for a full (re)analysis.
	Incremental bool
	// DirtyNets is the size of the dirty set handed to ReanalyzeStateCtx.
	DirtyNets int
	// RecomputedCells counts combinational cells whose output was
	// re-evaluated (full analysis: every driven cell).
	RecomputedCells int
	// RecomputedEndpoints counts flop setup checks re-evaluated.
	RecomputedEndpoints int
}

// Engine is a reusable analyzer bound to one netlist snapshot. Building it
// levelizes the combinational graph and flattens every connectivity lookup
// the propagation needs; Analyze afterwards runs without allocations. The
// Engine caches connectivity, so it must be rebuilt after netlist edits
// (reconnects, buffer insertion, resizing).
//
// After an Analyze the Engine holds the complete propagation state of that
// run; ReanalyzeStateCtx updates it in place for a changed RC view, and
// Fork clones it for an independent worker (shared immutable graph tables,
// private mutable arrival/endpoint state).
type Engine struct {
	nl *netlist.Netlist

	// order is the levelized combinational order (level 0 = cells fed
	// only by sources), flattened; levels counts its levels.
	order  []*netlist.Instance
	levels int
	flops  []*netlist.Instance

	// Flat per-(instance, input-pin) arc tables: the rows of instance i
	// are arcNet/arcSink/arcFlat[arcStart[i]:arcStart[i+1]], one per input
	// pin in canonical cell order. arcNet is the driving net's Seq (-1
	// for unconnected or clock inputs, which timing skips); arcSink is
	// this pin's index in that net's sink list (-1 when absent).
	arcStart []int32
	arcNet   []int32
	arcSink  []int32

	// Flattened NLDM arcs (immutable, fork-shared): arcFlat maps every
	// row propagation evaluates to an entry of flats, and holds -1 for
	// the rows it never reads (flop D/CP pins, clock and unconnected
	// inputs). Sharing the axes lets one segment search + fraction pair
	// serve the rise/fall delay and slew tables of an arc — the dominant
	// cost of cell evaluation at Monte Carlo sampling rates.
	arcFlat []int32
	flats   []flatArc

	// outSeq[i] is instance i's output net Seq, -1 when unconnected or a
	// clock net (which combinational propagation never writes).
	outSeq []int32

	// Flop endpoint tables, aligned with flops: the D-pin net and sink
	// index, and the Q output net Seq.
	dNet, dSink, qNet []int32

	// Per-net arrival state, epoch-stamped: arr/slew/from are valid only
	// while stamp matches the current epoch, so each Analyze starts from
	// a logically cleared state without clearing (the same arena pattern
	// as the router's search scratch).
	epoch uint32
	stamp []uint32
	arr   []float64
	slew  []float64
	from  []int32 // Seq of the instance that set the arrival; -1 at sources

	// Flat mirrors of the RC view the retained state was computed under
	// (mutable, fork-copied): per-net load, per-arc-row wire delay into
	// the row's sink pin, and per-flop wire delay into the D pin. A full
	// analysis refreshes all three from the Input; a re-timing refreshes
	// only the dirty nets' entries. Propagation reads these flat arrays
	// instead of chasing *extract.NetRC pointers per arc.
	loadFF  []float64
	wireArc []float64
	wireD   []float64

	// Per-endpoint setup state, aligned with flops: the required period
	// and D-pin arrival of every constrained check from the last
	// analysis. Keeping the whole table (not just the running max) is
	// what lets a re-timing handle cones whose slack improves — the worst
	// endpoint is recomputed exactly over all entries, never monotonically.
	endNeed []float64
	endArr  []float64
	endOK   []bool

	// Re-timing basis bookkeeping: the options and clock arrivals the
	// retained state was computed under. A re-timing under different
	// analysis conditions falls back to a full pass.
	hasBase bool
	baseOpt Options
	baseClk []float64
	// baseClkNil distinguishes a nil clock table (endpoint checks charge
	// DefaultSkewPs) from a present-but-empty one (they don't).
	baseClkNil bool

	// Cone-walk adjacency (immutable, shared by forks): the forward
	// indices a re-timing needs to touch only the dirty fanout cones
	// instead of scanning the whole levelized order per call.
	levelOf   []int32 // per instance: levelized level index, -1 for flops/sources
	driverOf  []int32 // per net: Seq of its combinational driver, -1 if flop/port-driven
	consStart []int32 // per net: consumer rows consInst[consStart[n]:consStart[n+1]]
	consInst  []int32 // combinational consumers (with a driven output), level order
	dfStart   []int32 // per net: endpoint rows dFlop[dfStart[n]:dfStart[n+1]]
	dFlop     []int32 // flop indices (into flops) whose D pin loads the net
	qFlopOf   []int32 // per net: flop index whose Q output drives it, -1 otherwise

	// Re-timing dirty tracking, epoch-stamped like the arrival state:
	// rcStamp marks nets whose RC changed this call, valStamp nets whose
	// recomputed arrival or slew differs from the retained state.
	reEpoch  uint32
	rcStamp  []uint32
	valStamp []uint32
	// Cone-walk scratch, sized lazily with the stamps: a per-instance
	// dedup stamp plus an intrusive per-level worklist (levelHead heads,
	// instNext links), and the endpoint recheck list with its own stamp.
	instStamp []uint32
	endStamp  []uint32
	instNext  []int32
	levelHead []int32
	endList   []int32

	stats ReStats
	res   Result
}

// carveI32 slices n entries off the front of a shared int32 arena,
// capacity-capped so a stray append can never clobber the next table.
func carveI32(arena *[]int32, n int) []int32 {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// carveF64 is carveI32 for float64 arenas.
func carveF64(arena *[]float64, n int) []float64 {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// flatArc is one NLDM arc with its four tables flattened over a shared
// (slew, load) axis pair. The segment selection mirrors
// liberty.Table.Lookup exactly; the interpolation itself computes its
// fractions by reciprocal multiply (axis deltas are inverted once at
// flatten time) and factors the four bilinear corner weights out of the
// per-table expressions — same math, fewer divides and multiplies per
// evaluation, at worst one ULP from liberty.Table.Lookup. The golden
// artifacts carry these values. blk holds, per interpolation
// cell, the four corner values of all four tables contiguously
// ([v00 v10 v01 v11] × dR, dF, sR, sF — 16 floats, two cache lines), so
// one cell evaluation touches one block instead of four scattered
// matrices.
type flatArc struct {
	slews, loads []float64
	// invDS/invDL are the precomputed segment-width reciprocals:
	// invDS[i] = 1/(slews[i+1]-slews[i]), likewise invDL over loads.
	invDS, invDL []float64
	blk          []float64 // [(i*(len(loads)-1)+j)*16 : +16]
}

// segLin mirrors liberty's interpolation-cell selection (first axis entry
// >= v, clamped to the boundary cells): the insertion point is the count
// of axis entries below v. The characterization axes are 5-point, so a
// fixed-trip counting scan (no early exit, no mispredicted break) beats
// binary search.
func segLin(axis []float64, v float64) int {
	i := 0
	for _, x := range axis {
		if x < v {
			i++
		}
	}
	switch n := len(axis); {
	case i <= 0:
		return 0
	case i >= n:
		return n - 2
	default:
		return i - 1
	}
}

// sameAxis reports element-exact axis equality — the condition under
// which one segment/fraction pair is bit-identical for all tables.
func sameAxis(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// flattenArc builds the flat representation of an arc, or reports why
// its tables do not flatten (missing tables, degenerate or mismatched
// axes).
func flattenArc(a *liberty.Arc) (flatArc, error) {
	if a == nil || a.DelayRise == nil || a.DelayFall == nil || a.SlewRise == nil || a.SlewFall == nil {
		return flatArc{}, fmt.Errorf("no complete delay and slew tables")
	}
	s, l := a.DelayRise.Slews, a.DelayRise.Loads
	if len(s) < 2 || len(l) < 2 {
		return flatArc{}, fmt.Errorf("degenerate %dx%d table axes", len(s), len(l))
	}
	for _, t := range []*liberty.Table{a.DelayFall, a.SlewRise, a.SlewFall} {
		if !sameAxis(t.Slews, s) || !sameAxis(t.Loads, l) {
			return flatArc{}, fmt.Errorf("delay and slew tables do not share one (slew, load) axis pair")
		}
	}
	f := flatArc{
		slews: s, loads: l,
		invDS: make([]float64, len(s)-1),
		invDL: make([]float64, len(l)-1),
		blk:   make([]float64, (len(s)-1)*(len(l)-1)*16),
	}
	for i := range f.invDS {
		f.invDS[i] = 1 / (s[i+1] - s[i])
	}
	for j := range f.invDL {
		f.invDL[j] = 1 / (l[j+1] - l[j])
	}
	tabs := [4]*liberty.Table{a.DelayRise, a.DelayFall, a.SlewRise, a.SlewFall}
	for i := 0; i < len(s)-1; i++ {
		for j := 0; j < len(l)-1; j++ {
			off := (i*(len(l)-1) + j) * 16
			for k, t := range tabs {
				f.blk[off+4*k+0] = t.Values[i][j]
				f.blk[off+4*k+1] = t.Values[i+1][j]
				f.blk[off+4*k+2] = t.Values[i][j+1]
				f.blk[off+4*k+3] = t.Values[i+1][j+1]
			}
		}
	}
	return f, nil
}

// NewEngine levelizes the netlist and builds the dense timing graph.
// It fails if the combinational graph is cyclic, or if an arc propagation
// would evaluate does not flatten onto one (slew, load) axis pair.
//
// The build tables are carved from a handful of per-type arenas (one
// int32, one float64, plus the per-arc tables): an MC variation study
// builds one engine per population and forks it per worker, so the
// one-time build cost shows up multiplied.
func NewEngine(nl *netlist.Netlist) (*Engine, error) {
	levels, cyclic := nl.TopoLevels()
	if len(cyclic) > 0 {
		return nil, fmt.Errorf("sta: %d instances in combinational cycles", len(cyclic))
	}
	e := &Engine{nl: nl, levels: len(levels), flops: nl.Flops()}
	nOrder := 0
	for _, level := range levels {
		nOrder += len(level)
	}
	e.order = make([]*netlist.Instance, 0, nOrder)
	for _, level := range levels {
		e.order = append(e.order, level...)
	}

	nInst, nNet, nFlop := len(nl.Instances), len(nl.Nets), len(e.flops)
	ints := make([]int32, (nInst+1)+2*nInst+3*nFlop+5*nNet+2)
	e.arcStart = carveI32(&ints, nInst+1)
	e.outSeq = carveI32(&ints, nInst)
	e.levelOf = carveI32(&ints, nInst)
	e.dNet = carveI32(&ints, nFlop)
	e.dSink = carveI32(&ints, nFlop)
	e.qNet = carveI32(&ints, nFlop)
	e.from = carveI32(&ints, nNet)
	e.driverOf = carveI32(&ints, nNet)
	e.qFlopOf = carveI32(&ints, nNet)
	e.consStart = carveI32(&ints, nNet+1)
	e.dfStart = carveI32(&ints, nNet+1)

	for _, inst := range nl.Instances {
		e.arcStart[inst.Seq+1] = int32(len(inst.Cell.Inputs))
		e.outSeq[inst.Seq] = -1
		if out := inst.OutputNet(); out != nil && !out.IsClock {
			e.outSeq[inst.Seq] = int32(out.Seq)
		}
	}
	for i := 0; i < nInst; i++ {
		e.arcStart[i+1] += e.arcStart[i]
	}
	nArcs := int(e.arcStart[nInst])
	arcInts := make([]int32, 3*nArcs)
	e.arcNet = carveI32(&arcInts, nArcs)
	e.arcSink = carveI32(&arcInts, nArcs)
	e.arcFlat = carveI32(&arcInts, nArcs)
	// The arcs of evaluated rows — connected, non-clock inputs of
	// combinational cells with a driven output — are flattened once per
	// distinct arc: a netlist instantiates a handful of cell types, so the
	// flats table is tiny and stays cache-resident through propagation.
	flatOf := make(map[*liberty.Arc]int32, 16)
	for _, inst := range nl.Instances {
		row := e.arcStart[inst.Seq]
		for _, p := range inst.Cell.Inputs {
			e.arcNet[row], e.arcSink[row], e.arcFlat[row] = -1, -1, -1
			if n := inst.Conn(p.Name); n != nil && !n.IsClock {
				e.arcNet[row] = int32(n.Seq)
			}
			if e.arcNet[row] >= 0 && e.outSeq[inst.Seq] >= 0 && !inst.Cell.IsSeq() {
				a := inst.Cell.Arc(p.Name)
				fi, seen := flatOf[a]
				if !seen {
					f, err := flattenArc(a)
					if err != nil {
						return nil, fmt.Errorf("sta: cell %s input %s: %w", inst.Cell.Name, p.Name, err)
					}
					fi = int32(len(e.flats))
					e.flats = append(e.flats, f)
					flatOf[a] = fi
				}
				e.arcFlat[row] = fi
			}
			row++
		}
	}

	// One pass over the nets resolves every pin's sink index — O(total
	// sinks), instead of rescanning each net's sink list per fanin pin.
	for _, n := range nl.Nets {
		if n.IsClock {
			continue
		}
		for i, s := range n.Sinks {
			if s.IsPort() {
				continue
			}
			if row, ok := e.arcRow(s.Inst, s.Pin); ok {
				e.arcSink[row] = int32(i)
			}
		}
	}

	for i, ff := range e.flops {
		e.dNet[i], e.dSink[i] = -1, -1
		if row, ok := e.arcRow(ff, ff.Cell.Seq.DataPin); ok {
			e.dNet[i], e.dSink[i] = e.arcNet[row], e.arcSink[row]
		}
		e.qNet[i] = -1
		if q := ff.OutputNet(); q != nil {
			e.qNet[i] = int32(q.Seq)
		}
	}

	e.stamp = make([]uint32, nNet)
	floats := make([]float64, 3*nNet+3*nFlop+nArcs)
	e.arr = carveF64(&floats, nNet)
	e.slew = carveF64(&floats, nNet)
	e.endNeed = carveF64(&floats, nFlop)
	e.endArr = carveF64(&floats, nFlop)
	e.loadFF = carveF64(&floats, nNet)
	e.wireArc = carveF64(&floats, nArcs)
	e.wireD = carveF64(&floats, nFlop)
	e.endOK = make([]bool, nFlop)

	e.buildConeIndex(levels)
	return e, nil
}

// buildConeIndex derives the forward adjacency the incremental cone walk
// seeds from: per-net combinational driver and consumers, per-net flop
// endpoints, the Q-driving flop, and each instance's level. Consumers are
// counting-sorted in levelized order, so worklist seeding is deterministic.
func (e *Engine) buildConeIndex(levels [][]*netlist.Instance) {
	nNet := len(e.stamp)
	for i := range e.levelOf {
		e.levelOf[i] = -1
	}
	for li, level := range levels {
		for _, inst := range level {
			e.levelOf[inst.Seq] = int32(li)
		}
	}
	for i := 0; i < nNet; i++ {
		e.driverOf[i] = -1
		e.qFlopOf[i] = -1
	}
	for i, q := range e.qNet {
		if q >= 0 {
			e.qFlopOf[q] = int32(i)
		}
	}
	// Count, prefix-sum, fill with moving cursors, then shift the starts
	// back — the standard in-place counting sort. Instances whose output
	// is unconnected (or a clock net) never propagate, so they are not
	// consumers of anything.
	nCons := 0
	for _, inst := range e.order {
		seq := inst.Seq
		if e.outSeq[seq] < 0 {
			continue
		}
		e.driverOf[e.outSeq[seq]] = int32(seq)
		for row := e.arcStart[seq]; row < e.arcStart[seq+1]; row++ {
			if n := e.arcNet[row]; n >= 0 {
				e.consStart[n+1]++
				nCons++
			}
		}
	}
	nDF := 0
	for _, d := range e.dNet {
		if d >= 0 {
			e.dfStart[d+1]++
			nDF++
		}
	}
	for i := 0; i < nNet; i++ {
		e.consStart[i+1] += e.consStart[i]
		e.dfStart[i+1] += e.dfStart[i]
	}
	tail := make([]int32, nCons+nDF)
	e.consInst = tail[:nCons:nCons]
	e.dFlop = tail[nCons:]
	for _, inst := range e.order {
		seq := inst.Seq
		if e.outSeq[seq] < 0 {
			continue
		}
		for row := e.arcStart[seq]; row < e.arcStart[seq+1]; row++ {
			if n := e.arcNet[row]; n >= 0 {
				e.consInst[e.consStart[n]] = int32(seq)
				e.consStart[n]++
			}
		}
	}
	for i, d := range e.dNet {
		if d >= 0 {
			e.dFlop[e.dfStart[d]] = int32(i)
			e.dfStart[d]++
		}
	}
	for i := nNet; i > 0; i-- {
		e.consStart[i] = e.consStart[i-1]
		e.dfStart[i] = e.dfStart[i-1]
	}
	e.consStart[0] = 0
	e.dfStart[0] = 0
}

// arcRow locates the arc-table row of an instance input pin (rows follow
// the cell's canonical input order).
func (e *Engine) arcRow(inst *netlist.Instance, pin string) (int32, bool) {
	row := e.arcStart[inst.Seq]
	for _, p := range inst.Cell.Inputs {
		if p.Name == pin {
			return row, true
		}
		row++
	}
	return -1, false
}

// Fork clones the Engine's mutable propagation state — arrival epoch
// arrays, endpoint tables, reanalysis basis — into an independent child
// that shares the immutable graph tables (levelized order, arc/sink/flop
// indices) with the parent. Forked engines may run concurrently with each
// other and with the parent, as long as the parent itself is not analyzing
// while children are being forked off it.
func (e *Engine) Fork() *Engine {
	c := *e
	nNet, nFlop, nArcs := len(e.stamp), len(e.endOK), len(e.wireArc)
	// The mutable float state is cloned through one arena (MC studies
	// fork an engine per worker, so per-slice clone allocations add up).
	// The basis clock table rides along: it is Engine-owned and rewritten
	// by recordBase, so the child needs its own copy or a re-timing child
	// would scribble over a concurrently-read parent buffer. The RC
	// mirrors are part of the retained basis (they reflect the view the
	// state was computed under), so they clone too.
	floats := make([]float64, 3*nNet+3*nFlop+nArcs+len(e.baseClk))
	c.arr = carveF64(&floats, nNet)
	c.slew = carveF64(&floats, nNet)
	c.endNeed = carveF64(&floats, nFlop)
	c.endArr = carveF64(&floats, nFlop)
	c.loadFF = carveF64(&floats, nNet)
	c.wireArc = carveF64(&floats, nArcs)
	c.wireD = carveF64(&floats, nFlop)
	c.baseClk = carveF64(&floats, len(e.baseClk))
	copy(c.arr, e.arr)
	copy(c.slew, e.slew)
	copy(c.endNeed, e.endNeed)
	copy(c.endArr, e.endArr)
	copy(c.loadFF, e.loadFF)
	copy(c.wireArc, e.wireArc)
	copy(c.wireD, e.wireD)
	copy(c.baseClk, e.baseClk)
	c.stamp = append([]uint32(nil), e.stamp...)
	c.from = append([]int32(nil), e.from...)
	c.endOK = append([]bool(nil), e.endOK...)
	// Dirty-tracking and cone-walk scratch is per-call state; the child
	// rebuilds its own lazily (sharing the parent's would race). The
	// result buffer must not alias the parent's path storage.
	c.reEpoch, c.rcStamp, c.valStamp = 0, nil, nil
	c.instStamp, c.endStamp, c.instNext, c.levelHead, c.endList = nil, nil, nil, nil, nil
	c.stats = ReStats{}
	c.res = Result{}
	return &c
}

// Stats reports what the last Analyze/ReanalyzeStateCtx call on this
// Engine did.
func (e *Engine) Stats() ReStats { return e.stats }

// Analyze runs full STA and derives the minimum feasible clock period.
//
// The returned Result (including its CriticalPath backing array) is owned
// by the Engine and reused by the next Analyze call; clone it if it must
// outlive that, or use AnalyzeInto to fill caller-owned storage.
func (e *Engine) Analyze(in Input, opt Options) (*Result, error) {
	if err := e.AnalyzeInto(&e.res, in, opt); err != nil {
		return nil, err
	}
	return &e.res, nil
}

// AnalyzeInto runs full STA into dst, reusing dst's CriticalPath storage
// when its capacity suffices: a warmed caller-owned Result makes repeated
// analysis allocation-free without borrowing Engine-owned storage.
func (e *Engine) AnalyzeInto(dst *Result, in Input, opt Options) error {
	return e.AnalyzeIntoCtx(context.Background(), dst, in, opt)
}

// AnalyzeIntoCtx is AnalyzeInto under a context: cancellation is observed
// every cancelCheckEvery cells of the levelized propagation. A cancelled
// analysis leaves the engine without a retained basis (the propagation
// state is partial), so the next call on this engine runs full.
func (e *Engine) AnalyzeIntoCtx(ctx context.Context, dst *Result, in Input, opt Options) error {
	if err := e.analyzeState(ctx, in, opt); err != nil {
		return err
	}
	return e.finishInto(dst, in)
}

// analyzeState runs the full propagation and endpoint pass, updating the
// retained state and recording the basis — everything AnalyzeIntoCtx does
// short of reducing a Result.
func (e *Engine) analyzeState(ctx context.Context, in Input, opt Options) error {
	done := ctx.Done()
	e.beginEpoch()
	e.stats = ReStats{}
	e.refreshAllRC(in, opt)
	e.seedSources(in, opt)
	for i, inst := range e.order {
		if done != nil && i&(cancelCheckEvery-1) == 0 {
			select {
			case <-done:
				e.hasBase = false
				return cancelled(ctx)
			default:
			}
		}
		out := e.outSeq[inst.Seq]
		if out < 0 {
			continue
		}
		e.stats.RecomputedCells++
		bestArr, bestSlew, ok := e.evalCell(int32(inst.Seq), out, opt)
		if !ok {
			continue
		}
		e.set(out, bestArr, bestSlew, int32(inst.Seq))
	}
	for i, ff := range e.flops {
		if done != nil && i&(cancelCheckEvery-1) == 0 {
			select {
			case <-done:
				e.hasBase = false
				return cancelled(ctx)
			default:
			}
		}
		e.stats.RecomputedEndpoints++
		e.checkEndpoint(i, ff, in, opt)
	}
	e.recordBase(in, opt)
	return nil
}

// ReanalyzeStateCtx re-times the design after an RC change, given the
// dense set of net Seqs whose extracted view differs from the one the
// Engine's retained state was computed under (a net absent from dirtyNets
// must be bit-identical in both views). Only the forward fanout cones of
// dirty nets are re-propagated, over the existing levelized order;
// everything outside the cones keeps its retained arrivals, and the
// endpoint table is updated exactly, so cones whose slack improves are
// handled, not just degradations. The retained state afterwards is
// bit-identical to a full analysis of the new view.
//
// No Result is reduced: a Monte Carlo sampling loop needs only SlackStats
// afterwards and would otherwise pay a full-design reduction (worst slew
// scan, critical path trace) per sample.
//
// A call under different Options or clock arrivals than the retained
// basis, with a dirty Seq outside the engine's net table, or on an Engine
// with no retained state runs a full propagation instead. Cancellation
// behaves as in AnalyzeIntoCtx: a cancelled call drops the retained basis.
func (e *Engine) ReanalyzeStateCtx(ctx context.Context, in Input, opt Options, dirtyNets []int32) error {
	if !e.hasBase || opt != e.baseOpt || !e.clkMatchesBase(in) {
		return e.analyzeState(ctx, in, opt)
	}
	done := ctx.Done()
	if done != nil {
		// The cone walk visits only dirty fanout — often a handful of
		// cells, fewer than any periodic check interval — so an already
		// cancelled context is observed up front (matching the full
		// pass, whose first loop iteration checks immediately).
		select {
		case <-done:
			e.hasBase = false
			return cancelled(ctx)
		default:
		}
	}
	e.beginReEpoch()
	e.stats = ReStats{Incremental: true, DirtyNets: len(dirtyNets)}
	for _, s := range dirtyNets {
		if s < 0 || int(s) >= len(e.rcStamp) {
			// A Seq outside the engine's net table means the RC views
			// disagree with the netlist this Engine was built on — not a
			// valid incremental basis. Honor the fallback contract
			// instead of silently dropping the net.
			return e.analyzeState(ctx, in, opt)
		}
		e.rcStamp[s] = e.reEpoch
		e.refreshNetRC(s, in, opt)
	}
	for i := range e.levelHead {
		e.levelHead[i] = -1
	}
	e.endList = e.endList[:0]

	// Seed the cone walk from each dirty net: re-seed the Q source whose
	// clk->Q delay depends on the net's load, then enqueue the net's
	// combinational driver (its load changed), its consumers (their wire
	// delay / input slew changed), and its D endpoints. Duplicate dirty
	// entries are harmless — re-seeding is idempotent and the worklist
	// stamps deduplicate.
	for _, s := range dirtyNets {
		if fi := e.qFlopOf[s]; fi >= 0 {
			ff := e.flops[fi]
			load := e.loadFF[s]
			d := ff.Cell.Seq.ClkQWorst(opt.ClockSlewPs, load)
			arr := e.clkArr(in, ff.Seq) + d
			slew := extract.SlewDegrade(opt.InputSlewPs, 0)
			if e.stamp[s] != e.epoch || arr != e.arr[s] || slew != e.slew[s] {
				e.valStamp[s] = e.reEpoch
			}
			e.set(s, arr, slew, int32(ff.Seq))
		}
		if drv := e.driverOf[s]; drv >= 0 {
			e.enqueue(drv)
		}
		for r := e.consStart[s]; r < e.consStart[s+1]; r++ {
			e.enqueue(e.consInst[r])
		}
		e.pushEndpoints(s)
	}

	// Cone propagation, level by level: a cell re-evaluates iff it was
	// enqueued — its output net's RC changed (load), a fanin net's RC
	// changed (wire delay / slew degradation into this cell), or a
	// fanin's recomputed arrival differs from the retained state. The
	// level buckets guarantee every fanin's value is final before its
	// consumers run, exactly like the full levelized scan, so a
	// re-evaluation that reproduces the retained value bit-identically
	// stops the cone right there — and nets outside the cones are never
	// touched at all, which is what holds the per-sample cost to the
	// cone size instead of the design size.
	visited := 0
	for l := 0; l < len(e.levelHead); l++ {
		for seq := e.levelHead[l]; seq >= 0; seq = e.instNext[seq] {
			visited++
			if done != nil && visited&(cancelCheckEvery-1) == 0 {
				select {
				case <-done:
					e.hasBase = false
					return cancelled(ctx)
				default:
				}
			}
			out := e.outSeq[seq]
			e.stats.RecomputedCells++
			bestArr, bestSlew, ok := e.evalCell(seq, out, opt)
			if !ok {
				// Whether a net is driven at all is structural, not
				// RC-dependent: it was unset in the retained state too.
				continue
			}
			if e.stamp[out] != e.epoch || bestArr != e.arr[out] || bestSlew != e.slew[out] {
				e.valStamp[out] = e.reEpoch
				for r := e.consStart[out]; r < e.consStart[out+1]; r++ {
					e.enqueue(e.consInst[r])
				}
				e.pushEndpoints(out)
			}
			e.set(out, bestArr, bestSlew, int32(seq))
		}
	}

	// Endpoint checks, after every cone value is final: exactly the flops
	// whose D net carries changed RC or a changed arrival. All other
	// entries of the endpoint table are still exact.
	for _, fi := range e.endList {
		e.stats.RecomputedEndpoints++
		e.checkEndpoint(int(fi), e.flops[fi], in, opt)
	}
	// No recordBase here: the basis was verified identical on entry, so
	// the retained Options/clock copies are already exact.
	return nil
}

// enqueue adds a combinational instance to its level's worklist bucket
// once per reanalysis epoch. Only instances with a driven, non-clock
// output are ever enqueued (the adjacency excludes the rest).
func (e *Engine) enqueue(seq int32) {
	if e.instStamp[seq] == e.reEpoch {
		return
	}
	e.instStamp[seq] = e.reEpoch
	l := e.levelOf[seq]
	e.instNext[seq] = e.levelHead[l]
	e.levelHead[l] = seq
}

// pushEndpoints schedules the setup re-checks of every flop whose D pin
// loads the net, deduplicated per epoch; the checks run after propagation
// so they read final arrivals.
func (e *Engine) pushEndpoints(net int32) {
	for r := e.dfStart[net]; r < e.dfStart[net+1]; r++ {
		fi := e.dFlop[r]
		if e.endStamp[fi] == e.reEpoch {
			continue
		}
		e.endStamp[fi] = e.reEpoch
		e.endList = append(e.endList, fi)
	}
}

// SlackStats reduces the retained endpoint table against a clock period:
// WNS is the worst endpoint slack, TNS the sum of negative slacks, both
// in ps. The reduction runs in fixed flop order, so it is deterministic
// for a given retained state. It reads whatever state the last Analyze or
// ReanalyzeStateCtx call left behind; with no constrained endpoints both
// are 0.
func (e *Engine) SlackStats(periodPs float64) (wnsPs, tnsPs float64) {
	wns := math.Inf(1)
	for i, ok := range e.endOK {
		if !ok {
			continue
		}
		s := periodPs - e.endNeed[i]
		if s < wns {
			wns = s
		}
		if s < 0 {
			tnsPs += s
		}
	}
	if math.IsInf(wns, 1) {
		wns = 0
	}
	return wns, tnsPs
}

// seedSources stamps arrivals at primary inputs and flop Q outputs.
func (e *Engine) seedSources(in Input, opt Options) {
	for _, p := range e.nl.Ports {
		if p.Dir == netlist.In && p.Net != nil && !p.Net.IsClock {
			e.set(int32(p.Net.Seq), 0, opt.InputSlewPs, -1)
		}
	}
	for i, ff := range e.flops {
		q := e.qNet[i]
		if q < 0 {
			continue
		}
		load := e.loadFF[q]
		d := ff.Cell.Seq.ClkQWorst(opt.ClockSlewPs, load)
		e.set(q, e.clkArr(in, ff.Seq)+d, extract.SlewDegrade(opt.InputSlewPs, 0), int32(ff.Seq))
	}
}

// evalCell computes one combinational cell's output arrival and slew from
// its stamped fanin nets — the single unit of propagation work, shared
// verbatim by the full and the incremental pass so both produce
// bit-identical values. ok is false when no fanin is driven.
func (e *Engine) evalCell(seq, out int32, opt Options) (bestArr, bestSlew float64, ok bool) {
	load := e.loadFF[out]
	bestArr = math.Inf(-1)
	// The load-axis segment depends only on the output load, which is
	// constant across the cell's arcs, and the characterization shares one
	// loads slice per drive class — so the segment/fraction pair is cached
	// keyed on the axis' backing array and recomputed (identically) only
	// when an arc carries a different axis.
	var curLoads *float64
	var jOff, stride int
	var fl, gl float64
	// The row bound is read once: re-reading arcStart[seq+1] per row keeps
	// seq and arcStart live across the segment scans below, and the
	// compiler then spills the scans' loop counters to the stack.
	for row, end := e.arcStart[seq], e.arcStart[seq+1]; row < end; row++ {
		inNet := e.arcNet[row]
		if inNet < 0 || e.stamp[inNet] != e.epoch {
			continue // clock, unconnected, or undriven/constant-like
		}
		wire := e.wireArc[row]
		sinkSlew := extract.SlewDegrade(e.slew[inNet], wire)
		// One interpolation cell serves all four tables. The segment
		// selection matches liberty.Table.Lookup exactly; the fractions
		// are reciprocal multiplies against the flatten-time inverted axis
		// deltas, and the four bilinear corner weights are hoisted once
		// per row instead of being re-multiplied per table term — the MC
		// sampling hot path's dominant arithmetic.
		f := &e.flats[e.arcFlat[row]]
		i := segLin(f.slews, sinkSlew)
		if lp := &f.loads[0]; lp != curLoads {
			curLoads = lp
			j := segLin(f.loads, load)
			fl = (load - f.loads[j]) * f.invDL[j]
			gl = 1 - fl
			jOff, stride = j*16, (len(f.loads)-1)*16
		}
		fs := (sinkSlew - f.slews[i]) * f.invDS[i]
		gs := 1 - fs
		w00, w10, w01, w11 := gs*gl, fs*gl, gs*fl, fs*fl
		off := i*stride + jOff
		blk := f.blk[off : off+16]
		dRv := blk[0]*w00 + blk[1]*w10 + blk[2]*w01 + blk[3]*w11
		dFv := blk[4]*w00 + blk[5]*w10 + blk[6]*w01 + blk[7]*w11
		d := dRv
		if dFv > d {
			d = dFv
		}
		cand := e.arr[inNet] + wire + d
		if cand > bestArr {
			bestArr = cand
			oR := blk[8]*w00 + blk[9]*w10 + blk[10]*w01 + blk[11]*w11
			oF := blk[12]*w00 + blk[13]*w10 + blk[14]*w01 + blk[15]*w11
			if oR > oF {
				bestSlew = oR
			} else {
				bestSlew = oF
			}
		}
	}
	if math.IsInf(bestArr, -1) {
		return 0, 0, false
	}
	return bestArr, bestSlew, true
}

// checkEndpoint evaluates flop i's setup check into the per-endpoint
// table: period >= arrival + setup - capture clock arrival (launch arrival
// already includes its clock insertion).
func (e *Engine) checkEndpoint(i int, ff *netlist.Instance, in Input, opt Options) {
	dNet := e.dNet[i]
	if dNet < 0 || e.stamp[dNet] != e.epoch {
		e.endOK[i] = false
		return
	}
	a := e.arr[dNet]
	wire := e.wireD[i]
	need := a + wire + ff.Cell.Seq.SetupPs - e.clkArr(in, ff.Seq)
	if in.ClockArrivalPs == nil {
		need += opt.DefaultSkewPs
	}
	e.endNeed[i] = need
	e.endArr[i] = a
	e.endOK[i] = true
}

// finishInto reduces the propagation state and endpoint table into dst:
// worst slew over all driven combinational outputs, the binding endpoint
// (recomputed exactly over the whole table, so improved cones can unseat a
// previously-critical check), and the traced critical path.
func (e *Engine) finishInto(dst *Result, in Input) error {
	*dst = Result{CriticalPath: dst.CriticalPath[:0]}
	worstSlew := 0.0
	for _, inst := range e.order {
		out := e.outSeq[inst.Seq]
		if out < 0 || e.stamp[out] != e.epoch {
			continue
		}
		if e.slew[out] > worstSlew {
			worstSlew = e.slew[out]
		}
	}
	dst.WorstSlewPs = worstSlew

	minPeriod := 0.0
	critNet, critFF := int32(-1), -1
	for i := range e.flops {
		if !e.endOK[i] {
			continue
		}
		dst.RegToReg++
		if e.endNeed[i] > minPeriod {
			minPeriod = e.endNeed[i]
			critNet = e.dNet[i]
			critFF = i
		}
		if e.endArr[i] > dst.MaxArrivalPs {
			dst.MaxArrivalPs = e.endArr[i]
		}
	}
	if minPeriod <= 0 {
		return fmt.Errorf("sta: no constrained register-to-register paths")
	}
	dst.MinPeriodPs = minPeriod
	dst.AchievedFreqGHz = 1000.0 / minPeriod

	// Trace the critical path backwards.
	if critFF >= 0 {
		dst.CriticalPath = append(dst.CriticalPath, PathPoint{Inst: e.flops[critFF].Name, ArrivalPs: minPeriod})
		n := critNet
		for n >= 0 {
			drvSeq := e.from[n]
			if drvSeq < 0 {
				break
			}
			drv := e.nl.Instances[drvSeq]
			dst.CriticalPath = append(dst.CriticalPath, PathPoint{Inst: drv.Name, ArrivalPs: e.arr[n]})
			if drv.Cell.IsSeq() {
				break
			}
			// Walk to the input that set the arrival (worst input).
			best := int32(-1)
			bestArr := math.Inf(-1)
			for row := e.arcStart[drvSeq]; row < e.arcStart[drvSeq+1]; row++ {
				inNet := e.arcNet[row]
				if inNet < 0 || e.stamp[inNet] != e.epoch {
					continue
				}
				if e.arr[inNet] > bestArr {
					bestArr = e.arr[inNet]
					best = inNet
				}
			}
			n = best
		}
		// Reverse for launch-to-capture order.
		for i, j := 0, len(dst.CriticalPath)-1; i < j; i, j = i+1, j-1 {
			dst.CriticalPath[i], dst.CriticalPath[j] = dst.CriticalPath[j], dst.CriticalPath[i]
		}
	}
	return nil
}

// recordBase marks the retained state as a valid re-timing basis under the
// given analysis conditions. The clock table is copied into Engine-owned
// storage: a caller that reuses one clock buffer and mutates it in place
// between analyses must not make clkMatchesBase compare the buffer against
// itself.
func (e *Engine) recordBase(in Input, opt Options) {
	e.hasBase = true
	e.baseOpt = opt
	e.baseClk = append(e.baseClk[:0], in.ClockArrivalPs...)
	e.baseClkNil = in.ClockArrivalPs == nil
}

// clkMatchesBase reports whether an input's clock arrivals are the ones
// the retained state was computed under (element-exact; nil and empty are
// distinct because nil switches the default-skew charge on).
func (e *Engine) clkMatchesBase(in Input) bool {
	if (in.ClockArrivalPs == nil) != e.baseClkNil || len(in.ClockArrivalPs) != len(e.baseClk) {
		return false
	}
	for i, v := range in.ClockArrivalPs {
		if v != e.baseClk[i] {
			return false
		}
	}
	return true
}

// beginEpoch opens a fresh arrival epoch, lazily invalidating arr/slew/from.
// On uint32 wraparound the stamps are hard-cleared so stale entries can
// never alias the new epoch.
func (e *Engine) beginEpoch() {
	e.epoch++
	if e.epoch == 0 {
		for i := range e.stamp {
			e.stamp[i] = 0
		}
		e.epoch = 1
	}
}

// beginReEpoch opens a fresh dirty-tracking epoch for one re-timing call,
// lazily sizing the stamp arrays and cone-walk scratch on first use (so a
// warmed engine's steady-state reanalysis allocates nothing).
func (e *Engine) beginReEpoch() {
	if e.rcStamp == nil {
		nNet, nInst, nFlop := len(e.stamp), len(e.nl.Instances), len(e.flops)
		stamps := make([]uint32, 2*nNet+nInst+nFlop)
		e.rcStamp = stamps[:nNet:nNet]
		e.valStamp = stamps[nNet : 2*nNet : 2*nNet]
		e.instStamp = stamps[2*nNet : 2*nNet+nInst : 2*nNet+nInst]
		e.endStamp = stamps[2*nNet+nInst:]
		e.instNext = make([]int32, nInst)
		e.levelHead = make([]int32, e.levels)
		e.endList = make([]int32, 0, nFlop)
	}
	e.reEpoch++
	if e.reEpoch == 0 {
		for i := range e.rcStamp {
			e.rcStamp[i] = 0
			e.valStamp[i] = 0
		}
		for i := range e.instStamp {
			e.instStamp[i] = 0
		}
		for i := range e.endStamp {
			e.endStamp[i] = 0
		}
		e.reEpoch = 1
	}
}

// set records a net's arrival in the current epoch.
func (e *Engine) set(net int32, arr, slew float64, from int32) {
	e.stamp[net] = e.epoch
	e.arr[net] = arr
	e.slew[net] = slew
	e.from[net] = from
}

// clkArr returns the clock insertion delay at an instance.
func (e *Engine) clkArr(in Input, seq int) float64 {
	if seq < len(in.ClockArrivalPs) {
		return in.ClockArrivalPs[seq]
	}
	return 0
}

// refreshAllRC fills the flat RC mirrors from an input view — the
// sequential pass a full analysis pays once so propagation never chases
// NetRC pointers per arc.
func (e *Engine) refreshAllRC(in Input, opt Options) {
	for n := range e.loadFF {
		e.loadFF[n] = e.loadOf(int32(n), in, opt)
	}
	for row, n := range e.arcNet {
		if n >= 0 {
			e.wireArc[row] = e.elmoreOf(n, e.arcSink[row], in)
		}
	}
	for i, d := range e.dNet {
		if d >= 0 {
			e.wireD[i] = e.elmoreOf(d, e.dSink[i], in)
		}
	}
}

// refreshNetRC re-mirrors one dirty net: its load, the wire delay into
// every combinational consumer row reading it, and into every flop D pin
// it feeds. Consumers whose output is undriven have no mirror entries to
// refresh — they are never evaluated.
func (e *Engine) refreshNetRC(s int32, in Input, opt Options) {
	e.loadFF[s] = e.loadOf(s, in, opt)
	for r := e.consStart[s]; r < e.consStart[s+1]; r++ {
		seq := e.consInst[r]
		for row := e.arcStart[seq]; row < e.arcStart[seq+1]; row++ {
			if e.arcNet[row] == s {
				e.wireArc[row] = e.elmoreOf(s, e.arcSink[row], in)
			}
		}
	}
	for r := e.dfStart[s]; r < e.dfStart[s+1]; r++ {
		fi := e.dFlop[r]
		e.wireD[fi] = e.elmoreOf(s, e.dSink[fi], in)
	}
}

// loadOf returns the capacitive load on a net: extracted total cap when
// available, else a lumped sum of sink pin caps.
func (e *Engine) loadOf(net int32, in Input, opt Options) float64 {
	if rc := e.rc(net, in); rc != nil {
		return rc.TotalCapFF
	}
	var c float64
	for _, s := range e.nl.Nets[net].Sinks {
		if !s.IsPort() {
			c += s.Inst.Cell.InputCap(s.Pin)
		} else {
			c += opt.PortLoadFF
		}
	}
	return c
}

// elmoreOf returns the wire delay from a net's driver to one of its sinks.
func (e *Engine) elmoreOf(net, sink int32, in Input) float64 {
	rc := e.rc(net, in)
	if rc == nil || sink < 0 || int(sink) >= len(rc.ElmorePs) {
		return 0
	}
	return rc.ElmorePs[sink]
}

// rc returns the extracted view of a net, nil when absent.
func (e *Engine) rc(net int32, in Input) *extract.NetRC {
	if int(net) < len(in.NetRC) {
		return in.NetRC[net]
	}
	return nil
}

// Analyze is the one-shot convenience wrapper: levelize, analyze, done.
// The returned Result is detached, so the temporary Engine is freed with
// this frame. Flows that sweep parameters should build an Engine once and
// call its Analyze repeatedly instead.
func Analyze(nl *netlist.Netlist, in Input, opt Options) (*Result, error) {
	e, err := NewEngine(nl)
	if err != nil {
		return nil, err
	}
	var res Result
	if err := e.AnalyzeInto(&res, in, opt); err != nil {
		return nil, err
	}
	return &res, nil
}
