// Synth-diff forking: frequency-axis incremental sweeps.
//
// Neighboring frequency targets synthesize netlists that differ almost
// purely by drive resizing (the generator and buffering passes are
// target-independent), so most of a neighboring point's back end is
// recomputable from the completed neighbor instead of from scratch.
// ForkSynthDiff runs the child's own synthesis, establishes the resize
// correspondence with netlist.Diff, and — when the gates hold — re-stamps
// the parent's global placement over the child's netlist and hands the
// patched stage bodies the parent artifacts they can adopt: the
// legalization/refinement bases (with resized cells re-probed as moved),
// the partition's dense sink tables (changed nets recomputed), the routed
// trees (adopted whole when every pin gcell and the negotiation order are
// provably unchanged), and the timing engine (re-stamped over the child's
// instances, re-propagating only dirtied cones). Every gate failure falls
// back to the normal stage body, so a diff fork is bit-identical to a
// from-scratch fork by construction — core.TestSynthDiffForkMatchesScratch
// holds both paths to the same artifacts byte for byte.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/faultinject"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/tech"
)

// SynthDiffMaxResizedFrac bounds the resized-instance fraction above which
// a synth diff is considered too large to patch: past it the changed-net
// closure touches most of the design and the patched path's bookkeeping
// costs more than it saves, so the fork falls back to the full pipeline.
const SynthDiffMaxResizedFrac = 0.25

// SynthDiffStats reports which patched paths one synth-diff fork took.
// The struct returned by ForkSynthDiff is updated live as the child's
// stages execute; read it after the child's Run completes.
type SynthDiffStats struct {
	// DiffPath is set when the fork took the patched path (parent
	// placement re-stamped); Fallback then stays empty. When the gates
	// failed, DiffPath is false and Fallback says why — the returned child
	// is still a healthy session that simply runs the full pipeline.
	DiffPath bool
	Fallback string

	Resized     int // resized instances between the two synth netlists
	ChangedNets int // nets touching a resized instance

	// Per-stage adoption outcomes (meaningful only when DiffPath).
	PartitionPatched  bool
	RouteAdoptedFront bool
	RouteAdoptedBack  bool
	STARestamped      bool
}

// synthDiffState carries the parent artifacts the patched stage bodies
// consult. It is installed on the child by ForkSynthDiff and cleared at
// the end of StageSTA, so a long diff chain does not retain every
// ancestor's netlist and routing state.
type synthDiffState struct {
	resized     []int32 // resized instance Seqs (valid in both netlists)
	changedNets []int32 // net Seqs with a resized endpoint

	parentWork *netlist.Netlist // parent's final (post-CTS) netlist
	pa         *PinAssignment
	sides      *SideNets
	frontRes   *route.Result
	backRes    *route.Result
	eng        *sta.Engine // parent's engine; re-stamped at StageSTA

	stats *SynthDiffStats
}

// ForkSynthDiff forks a completed parent toward a neighboring synthesis
// target through the netlist-diff path; see ForkSynthDiffCtx.
func (f *Flow) ForkSynthDiff(mutate func(*FlowConfig)) (*Flow, *SynthDiffStats, error) {
	return f.ForkSynthDiffCtx(context.Background(), mutate)
}

// ForkSynthDiffCtx forks the session under a mutated config whose delta
// re-runs synthesis (a frequency re-target), runs the child's synthesis,
// floorplan and powerplan, and — when the child's netlist is a bounded
// pure resize of the parent's and the floorplans coincide — re-stamps the
// parent's placement instead of re-placing, leaving the child positioned
// at StageCTS with the parent's partition/routing/STA state staged for
// adoption. Callers then Run the child normally.
//
// The returned stats say which path was taken. On any gate failure the
// child is still returned, healthy, and simply continues as a full
// from-scratch fork (its synthesis — the unavoidable cost — has already
// run); the error return is reserved for hard failures. Results are
// bit-identical between the two paths.
//
// The parent must be quiescent: a completed, valid, checkpointed session
// (the exp sweep and serve daemon chains satisfy this by construction).
func (f *Flow) ForkSynthDiffCtx(ctx context.Context, mutate func(*FlowConfig)) (*Flow, *SynthDiffStats, error) {
	st := &SynthDiffStats{}
	child, err := f.Fork(mutate)
	if err != nil {
		return nil, st, err
	}
	fallback := func(why string) (*Flow, *SynthDiffStats, error) {
		st.Fallback = why
		return child, st, nil
	}

	f.mu.Lock()
	ready := f.err == nil && !f.running && !f.halted && f.res.Reason == "" &&
		int(f.next) == NumStages && !f.noIncPlace &&
		f.synthSnap != nil && f.placeSnap != nil &&
		f.placeBasis != nil && f.refineBasis != nil &&
		f.staEng != nil && f.baseRC != nil
	f.mu.Unlock()
	if !ready {
		return fallback("parent is not a completed valid incremental checkpoint")
	}
	if child.NextStage() != StageSynth {
		return fallback("config delta does not re-run synthesis")
	}
	if diffDeltaBeyondSynth(f.cfg, child.cfg) {
		return fallback("config delta reaches past the synthesis stage")
	}

	// The unavoidable work: the child's own synthesis (plus the cheap
	// floorplan/powerplan), through the normal stage bodies.
	if err := child.RunToCtx(ctx, StagePowerplan); err != nil {
		return nil, st, err
	}
	if child.Halted() {
		return fallback("child halted before placement")
	}
	if err := faultinject.Fire("core.forkdiff.diff"); err != nil {
		return fallback(fmt.Sprintf("fault injected: %v", err))
	}

	d := netlist.Diff(f.synthSnap, child.synthSnap)
	st.Resized, st.ChangedNets = len(d.Resized), len(d.ChangedNets)
	if !d.ResizeOnly() {
		return fallback("synth netlists diverge structurally")
	}
	if n := len(child.synthSnap.Instances); n > 0 {
		if frac := float64(len(d.Resized)) / float64(n); frac > SynthDiffMaxResizedFrac {
			return fallback(fmt.Sprintf("diff too large: %.0f%% of instances resized", frac*100))
		}
	}
	if !samePlan(f.fp, child.fp) {
		return fallback("floorplans differ between the targets")
	}
	if err := faultinject.Fire("core.forkdiff.place"); err != nil {
		return fallback(fmt.Sprintf("fault injected: %v", err))
	}

	// Re-stamp the parent's global placement. Global placement models
	// cells at base-drive footprints (see place.Global), so over a
	// resize-only correspondence and an identical floorplan it is a pure
	// function of inputs the two runs share — the child's own StagePlace
	// would reproduce these exact positions.
	t0 := time.Now()
	for i, inst := range f.placeSnap.Instances {
		child.work.Instances[i].Pos = inst.Pos
	}
	for i, p := range f.placeSnap.Ports {
		child.work.Ports[i].Pos = p.Pos
	}
	child.placeSnap = child.work.Snapshot()
	// The parent's bases describe these positions at the parent's widths;
	// StageCTS declares width-diverged (resized) cells moved, so the delta
	// legalizer re-probes them and the refinement patch re-reads them.
	child.placeBasis = f.placeBasis
	child.refineBasis = f.refineBasis
	child.res.StageTimes[StagePlace] = time.Since(t0)

	child.baseRC = f.baseRC
	child.diff = &synthDiffState{
		resized:     d.Resized,
		changedNets: d.ChangedNets,
		parentWork:  f.work,
		pa:          f.pa,
		sides:       f.sides,
		frontRes:    f.frontRes,
		backRes:     f.backRes,
		eng:         f.staEng,
		stats:       st,
	}
	child.mu.Lock()
	child.next = StageCTS
	child.epoch++
	child.mu.Unlock()
	st.DiffPath = true
	return child, st, nil
}

// diffDeltaBeyondSynth reports whether two configs differ anywhere other
// than the fields StageSynth consumes (target frequency, synth options)
// and the cosmetic Name. Any other delta would invalidate adopting the
// parent's floorplan/placement/partition state.
func diffDeltaBeyondSynth(a, b FlowConfig) bool {
	a.Name, b.Name = "", ""
	a.TargetFreqGHz, b.TargetFreqGHz = 0, 0
	a.Synth, b.Synth = synth.Options{}, synth.Options{}
	return a != b
}

// samePlan reports structural floorplan equality: same core rectangle and
// row geometry (the fields every later stage reads).
func samePlan(a, b *floorplan.Plan) bool {
	return a != nil && b != nil && a.Core == b.Core && slices.Equal(a.Rows, b.Rows)
}

// tryPatchPartition rebuilds the Algorithm 1 partition by patching the
// parent's dense sink tables: unchanged nets share the parent's arenas
// and routing tasks outright, nets with a resized endpoint are recomputed
// exactly as Partition would. Returns nil (caller runs the full
// partition) when the pin-side assignment shifted with the re-sized
// master histogram or the netlists stopped corresponding.
func (d *synthDiffState) tryPatchPartition(f *Flow, pa *PinAssignment, pinAt func(netlist.PinRef) geom.Point) *SideNets {
	if faultinject.Fire("core.partition.patch") != nil {
		return nil
	}
	par, pw, cw := d.sides, d.parentWork, f.work
	if par == nil || pw == nil ||
		len(pw.Instances) != len(cw.Instances) || len(pw.Nets) != len(cw.Nets) {
		return nil
	}
	// The greedy pin-side fill is weighted by the design's master
	// histogram, which resizing shifts: adopting the parent's per-net data
	// is only sound when every (master, pin) class landed on the same side.
	if !samePinSides(d.pa, pa) {
		return nil
	}
	frontOK := f.cfg.Pattern.Front > 0
	backOK := f.cfg.Pattern.Back > 0
	if !frontOK && !backOK {
		return nil
	}
	changed := make([]bool, len(cw.Nets))
	for _, seq := range d.changedNets {
		if int(seq) >= len(changed) {
			return nil
		}
		changed[seq] = true
	}
	// Legalization displacement cascades past the resized cells: a grown
	// cell can push unresized row neighbors to new slots, moving pins of
	// nets the synth diff never touched. Any net with a position-changed
	// endpoint must be recomputed — its parent route.Net carries stale
	// coordinates.
	movedPos := make([]bool, len(cw.Instances))
	for i := range cw.Instances {
		if cw.Instances[i].Pos != pw.Instances[i].Pos {
			movedPos[i] = true
		}
	}
	for i := range cw.Ports {
		if cw.Ports[i].Pos != pw.Ports[i].Pos {
			return nil
		}
	}
	for _, n := range cw.Nets {
		if changed[n.Seq] {
			continue
		}
		hit := n.Driver.Inst != nil && movedPos[n.Driver.Inst.Seq]
		if !hit {
			for _, s := range n.Sinks {
				if s.Inst != nil && movedPos[s.Inst.Seq] {
					hit = true
					break
				}
			}
		}
		if hit {
			changed[n.Seq] = true
		}
	}
	pf := make([]*route.Net, len(cw.Nets))
	pb := make([]*route.Net, len(cw.Nets))
	for _, n := range par.Front {
		if n.Seq < 0 || n.Seq >= len(pf) {
			return nil
		}
		pf[n.Seq] = n
	}
	for _, n := range par.Back {
		if n.Seq < 0 || n.Seq >= len(pb) {
			return nil
		}
		pb[n.Seq] = n
	}
	// reroutedOf mirrors Partition's side-fallback accounting for one net.
	reroutedOf := func(n *netlist.Net) int {
		c := 0
		for _, s := range n.Sinks {
			side := tech.Front
			if !s.IsPort() {
				side = pa.Side(s.Inst.Cell.Name, s.Pin)
			}
			if side == tech.Back && !backOK {
				side = tech.Front
				c++
			}
			if side == tech.Front && !frontOK {
				c++
			}
		}
		return c
	}
	out := &SideNets{
		Front:     make([]*route.Net, 0, len(par.Front)),
		Back:      make([]*route.Net, 0, len(par.Back)),
		SinkIDs:   make([][]netlist.PinID, len(cw.Nets)),
		SinkCapFF: make([][]float64, len(cw.Nets)),
		SinkPos:   make([][]int32, len(cw.Nets)),
		SinkOrder: make([][]int32, len(cw.Nets)),
		Rerouted:  par.Rerouted,
	}
	var sideOf []tech.Side
	for _, n := range cw.Nets {
		if !changed[n.Seq] {
			out.SinkIDs[n.Seq] = par.SinkIDs[n.Seq]
			out.SinkCapFF[n.Seq] = par.SinkCapFF[n.Seq]
			out.SinkPos[n.Seq] = par.SinkPos[n.Seq]
			out.SinkOrder[n.Seq] = par.SinkOrder[n.Seq]
			if fn := pf[n.Seq]; fn != nil {
				out.Front = append(out.Front, fn)
			}
			if bn := pb[n.Seq]; bn != nil {
				out.Back = append(out.Back, bn)
			}
			continue
		}
		if n.Driver == (netlist.PinRef{}) {
			return nil // the full partition surfaces the proper error
		}
		// Recompute this net exactly as Partition's loop body does, minus
		// the parent's contribution to the fallback counter.
		out.Rerouted -= reroutedOf(pw.Nets[n.Seq])
		k := len(n.Sinks)
		ids := make([]netlist.PinID, 0, k)
		caps := make([]float64, 0, k)
		sideOf = sideOf[:0]
		nFront, nBack := 0, 0
		for _, s := range n.Sinks {
			capFF := 1.0
			side := tech.Front
			if !s.IsPort() {
				capFF = s.Inst.Cell.InputCap(s.Pin)
				side = pa.Side(s.Inst.Cell.Name, s.Pin)
			}
			ids = append(ids, s.ID())
			caps = append(caps, capFF)
			if side == tech.Back && !backOK {
				side = tech.Front
				out.Rerouted++
			}
			if side == tech.Front && !frontOK {
				side = tech.Back
				out.Rerouted++
			}
			if side == tech.Back {
				nBack++
			} else {
				nFront++
			}
			sideOf = append(sideOf, side)
		}
		out.SinkIDs[n.Seq] = ids
		out.SinkCapFF[n.Seq] = caps
		out.SinkOrder[n.Seq] = sortSinksByLegacyName(make([]int32, 0, k), n.Sinks)
		drv := route.Pin{ID: n.Driver.ID(), At: pinAt(n.Driver), Driver: true}
		var frontPins, backPins []route.Pin
		if nFront > 0 {
			frontPins = append(make([]route.Pin, 0, nFront+1), drv)
		}
		if nBack > 0 {
			backPins = append(make([]route.Pin, 0, nBack+1), drv)
		}
		pos := make([]int32, 0, k)
		for i, s := range n.Sinks {
			p := route.Pin{ID: ids[i], At: pinAt(s), CapFF: caps[i]}
			if sideOf[i] == tech.Back {
				pos = append(pos, int32(len(backPins))<<1|1)
				backPins = append(backPins, p)
			} else {
				pos = append(pos, int32(len(frontPins))<<1)
				frontPins = append(frontPins, p)
			}
		}
		out.SinkPos[n.Seq] = pos
		if nFront > 0 {
			out.Front = append(out.Front, &route.Net{Name: n.Name, Seq: n.Seq, Pins: frontPins})
		}
		if nBack > 0 {
			out.Back = append(out.Back, &route.Net{Name: n.Name, Seq: n.Seq, Pins: backPins})
		}
	}
	return out
}

// samePinSides compares two pin-side assignments for exact equality.
func samePinSides(a, b *PinAssignment) bool {
	if a == nil || b == nil || len(a.sides) != len(b.sides) {
		return false
	}
	for k, v := range a.sides {
		if bv, ok := b.sides[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// tryAdoptRoute adopts the parent's routed result for one side when the
// routing computation is provably identical: the router consumes only pin
// gcells (search, MST, pin blockage) and the (hpwl, name) negotiation
// order, so if every pin's gcell and the order are unchanged, every
// committed edge — and hence every tree, layer assignment and overflow
// count — is bit-identical. The adopted trees are re-pointed at the
// child's pin slices (exact positions and sink caps differ on resized
// nets; extraction reads them from Tree.Pins).
func (d *synthDiffState) tryAdoptRoute(f *Flow, side tech.Side, childNets []*route.Net, ropt route.Options) (*route.Result, bool) {
	if faultinject.Fire("core.route.adopt") != nil {
		return nil, false
	}
	var parNets []*route.Net
	var parRes *route.Result
	if side == tech.Back {
		parNets, parRes = d.sides.Back, d.backRes
	} else {
		parNets, parRes = d.sides.Front, d.frontRes
	}
	if len(childNets) != len(parNets) {
		return nil, false
	}
	if len(childNets) == 0 {
		return nil, parRes == nil
	}
	if parRes == nil {
		return nil, false
	}
	// Replicate the router's gcell quantization (grid dims + clamping).
	gc := ropt.GCellNm
	if gc <= 0 {
		return nil, false
	}
	core := f.fp.Core
	w := int((core.W() + gc - 1) / gc)
	h := int((core.H() + gc - 1) / gc)
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	cellOf := func(p geom.Point) (int64, int64) {
		return geom.Clamp64(p.X/gc, 0, int64(w-1)), geom.Clamp64(p.Y/gc, 0, int64(h-1))
	}
	for i, cn := range childNets {
		pn := parNets[i]
		if cn.Seq != pn.Seq || cn.Name != pn.Name || len(cn.Pins) != len(pn.Pins) {
			return nil, false
		}
		if cn == pn {
			continue // shared by the partition patch: trivially identical
		}
		for j := range cn.Pins {
			cp, pp := &cn.Pins[j], &pn.Pins[j]
			if cp.ID != pp.ID || cp.Driver != pp.Driver {
				return nil, false
			}
			cx, cy := cellOf(cp.At)
			px, py := cellOf(pp.At)
			if cx != px || cy != py {
				return nil, false
			}
		}
	}
	// The negotiation order is the (hpwl, name) sort over exact pin
	// positions; a resized pin can shift a net's hpwl. Identical gcells
	// only imply identical routing if the order sequence is unchanged.
	co := routeOrderIdx(childNets)
	po := routeOrderIdx(parNets)
	for i := range co {
		if co[i] != po[i] {
			return nil, false
		}
	}
	res := &route.Result{
		Side:        parRes.Side,
		Trees:       make([]*route.Tree, len(parRes.Trees)),
		WirelenNm:   parRes.WirelenNm,
		ByLayerNm:   parRes.ByLayerNm,
		ViaCount:    parRes.ViaCount,
		DRVs:        parRes.DRVs,
		MaxOverflow: parRes.MaxOverflow,
		GridW:       parRes.GridW,
		GridH:       parRes.GridH,
	}
	store := make([]route.Tree, len(childNets))
	for i, cn := range childNets {
		pt := parRes.Tree(cn.Seq)
		if pt == nil {
			return nil, false
		}
		store[i] = *pt
		store[i].Pins = cn.Pins
		res.Trees[cn.Seq] = &store[i]
	}
	return res, true
}

// routeOrderIdx returns the side's nets' indices in routing order — the
// same (hpwl, name) total order Router.Run sorts by.
func routeOrderIdx(nets []*route.Net) []int32 {
	hpwl := make([]int64, len(nets))
	idx := make([]int32, len(nets))
	var pts []geom.Point
	for i, n := range nets {
		pts = pts[:0]
		for _, p := range n.Pins {
			pts = append(pts, p.At)
		}
		hpwl[i] = geom.HPWL(pts)
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if hpwl[i] != hpwl[j] {
			return hpwl[i] < hpwl[j]
		}
		return nets[i].Name < nets[j].Name
	})
	return idx
}
