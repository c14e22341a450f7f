// Package place implements standard-cell placement for the evaluation
// flow: a force-directed global placement with density spreading, followed
// by row legalization that honors the Power Tap Cell blockages from the
// powerplan. Legalization failure at high utilization is the "placement
// violations between standard cells and Power Tap Cells" mechanism that
// caps FFET utilization in the paper's Fig. 8(a).
package place

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// pollCtx returns ctx's error once it is cancelled, nil before. done is
// ctx.Done(), hoisted by the caller; a nil done (Background context)
// makes the check free.
func pollCtx(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return fmt.Errorf("place: cancelled: %w", ctx.Err())
	default:
		return nil
	}
}

// Options tunes placement.
type Options struct {
	Seed        int64
	GlobalIters int
	// BinCount is the density grid resolution per axis.
	BinCount int
	// MaxAttractFanout excludes huge nets (pre-CTS clock, reset) from the
	// attraction model.
	MaxAttractFanout int
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options {
	return Options{Seed: 1, GlobalIters: 24, BinCount: 28, MaxAttractFanout: 48}
}

// Result summarizes a placement.
type Result struct {
	HPWLNm    int64
	Rows      int
	Legalized int
}

// Place runs global placement and legalization in sequence. Blockages maps
// row index to blocked X intervals (tap cells + halos).
func Place(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, opt Options) (*Result, error) {
	Global(nl, fp, opt)
	if err := Legalize(nl, fp, blockages); err != nil {
		return nil, err
	}
	Refine(nl, fp, blockages, 3)
	return &Result{
		HPWLNm:    HPWL(nl, fp),
		Rows:      len(fp.Rows),
		Legalized: len(nl.Instances),
	}, nil
}

// center returns the instance center for wirelength models.
func center(inst *netlist.Instance, fp *floorplan.Plan) geom.Point {
	w := inst.Cell.WidthNm(fp.Stack)
	return geom.Pt(inst.Pos.X+w/2, inst.Pos.Y+fp.Stack.CellHeightNm()/2)
}

// pinPoint returns a net endpoint position.
func pinPoint(ref netlist.PinRef, fp *floorplan.Plan) geom.Point {
	if ref.IsPort() {
		return ref.Port.Pos
	}
	return center(ref.Inst, fp)
}

// HPWL computes the total half-perimeter wirelength of all signal nets.
func HPWL(nl *netlist.Netlist, fp *floorplan.Plan) int64 {
	var total int64
	pts := make([]geom.Point, 0, 16)
	for _, n := range nl.Nets {
		pts = pts[:0]
		if n.Driver != (netlist.PinRef{}) {
			pts = append(pts, pinPoint(n.Driver, fp))
		}
		for _, s := range n.Sinks {
			pts = append(pts, pinPoint(s, fp))
		}
		total += geom.HPWL(pts)
	}
	return total
}

// Global computes rough overlapping positions: seeded scatter, then
// alternating attraction (move to connected centroid) and density
// spreading passes. Fixed instances are never moved.
//
// Global models every cell at its base-drive footprint (the lowest-drive
// variant of the same logical cell), not its sized footprint: rough
// placement only needs relative cell extents, and drive-independent
// footprints make the result a pure function of (topology, floorplan,
// seed). Frequency-sweep siblings whose synthesized netlists differ only
// in drive resizing therefore share bit-identical global placements,
// which is what lets core.Flow.ForkSynthDiff re-stamp a neighbor's
// placement instead of re-placing. Legalization and all downstream
// metrics (HPWL, refinement) still use exact sized widths.
func Global(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	// A Background context never cancels, so the error is unreachable.
	_ = GlobalCtx(context.Background(), nl, fp, opt)
}

// GlobalCtx is Global under a context: cancellation is observed between
// refinement iterations and the pass is abandoned mid-placement (the
// netlist holds partial positions — callers must treat a cancelled
// placement as unusable).
func GlobalCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, opt Options) error {
	done := ctx.Done()
	rng := rand.New(rand.NewSource(opt.Seed))
	W, H := fp.Core.W(), fp.Core.H()
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		inst.Pos = geom.Pt(rng.Int63n(W+1), rng.Int63n(H+1))
	}
	fp.PlaceIOPorts(nl)

	// One workspace shared by every pass of the whole placement: centroid
	// accumulators indexed by Instance.Seq (flat int64 slices instead of
	// the pointer-keyed maps that dominated allocation volume and GC time
	// of the whole flow), the movable-cell list every rankSpread pass
	// re-sorts, and the spread density grid with its per-bin cell lists —
	// all rebuilt in place instead of reallocated per pass.
	ws := newGlobalWorkspace(len(nl.Instances))
	ws.buildRanks(nl)
	ws.buildFootprints(nl, fp)
	for it := 0; it < opt.GlobalIters; it++ {
		if err := pollCtx(ctx, done); err != nil {
			return err
		}
		ws.attract(nl, fp, opt)
		ws.attract(nl, fp, opt)
		if it%2 == 1 || it == opt.GlobalIters-1 {
			ws.rankSpread(nl, fp)
		}
	}
	// Local density cleanup then a last pull.
	ws.spread(nl, fp, opt)
	ws.attract(nl, fp, opt)
	return nil
}

// rankSpread redistributes cells uniformly along each axis by rank,
// preserving relative order (Gordian-style linear scaling). It undoes the
// central collapse of pure attraction while keeping neighborhoods intact.
// The rank order comes from the workspace's retained axis buckets: only
// buckets whose membership or keys changed since the previous pass are
// re-sorted, and the (position, name) tiebreak compares precomputed
// integer name ranks, never strings. Both are bit-invisible: names are
// unique, so (position, nameRank) is the same total order as (position,
// Name), and the concatenated per-bucket orders equal the full sort.
func (ws *globalWorkspace) rankSpread(nl *netlist.Netlist, fp *floorplan.Plan) {
	cells := ws.movableCells(nl)
	if len(cells) < 2 {
		return
	}
	W, H := fp.Core.W(), fp.Core.H()
	insts := nl.Instances
	n := int64(len(cells) - 1)
	for i, seq := range ws.rankOrder(&ws.bx, cells, W, true) {
		inst := insts[seq]
		x := int64(i) * W / n
		// Blend: 60% rank position, 40% attracted position.
		inst.Pos = geom.Pt((x*3+inst.Pos.X*2)/5, inst.Pos.Y)
	}
	for i, seq := range ws.rankOrder(&ws.by, cells, H, false) {
		inst := insts[seq]
		y := int64(i) * H / n
		inst.Pos = geom.Pt(inst.Pos.X, (y*3+inst.Pos.Y*2)/5)
	}
}

// globalWorkspace holds every buffer the global-placement passes reuse:
// centroid accumulators indexed by Instance.Seq, per-net endpoint
// buffers, the movable-cell list, and the spread density grid. One
// workspace serves a whole Global call, so repeated passes allocate
// nothing.
type globalWorkspace struct {
	sumX, sumY, cnt []int64
	pts             []geom.Point
	insts           []*netlist.Instance
	cells           []*netlist.Instance // movable cells, rebuilt in place per pass
	bins            []densityBin        // spread density grid, per-bin lists reused

	// nameRank[seq] is the instance's position in the Name-sorted order,
	// computed once per Global call. Every per-pass tiebreak that used to
	// compare Name strings compares these ints instead; names are unique,
	// so any (key, nameRank) order is exactly the (key, Name) order.
	nameRank []int32
	// baseW/baseA[seq] are the base-drive footprint width and area used by
	// the attraction and spread models, computed once per Global call.
	// Drive-independent by construction: resizing a cell to another drive
	// of the same base leaves both unchanged.
	baseW, baseA []int64
	// axisKey[seq] is the current rankSpread pass's coordinate on the axis
	// being ordered, snapshotted flat so bucket sorts read a contiguous
	// array instead of chasing instance pointers.
	axisKey []int64
	// bx, by are the retained per-axis rank-order buckets: rankSpread
	// re-sorts only buckets whose membership changed between passes.
	bx, by axisBuckets
}

func newGlobalWorkspace(n int) *globalWorkspace {
	return &globalWorkspace{
		sumX:     make([]int64, n),
		sumY:     make([]int64, n),
		cnt:      make([]int64, n),
		nameRank: make([]int32, n),
		axisKey:  make([]int64, n),
		baseW:    make([]int64, n),
		baseA:    make([]int64, n),
	}
}

// buildFootprints fills baseW/baseA with each instance's base-drive
// footprint: the lowest-drive library variant of the instance's Base cell.
// Hand-built cells outside a library (or netlists without one) fall back
// to their own sized footprint.
func (ws *globalWorkspace) buildFootprints(nl *netlist.Netlist, fp *floorplan.Plan) {
	for _, inst := range nl.Instances {
		c := inst.Cell
		if nl.Lib != nil {
			if base := nl.Lib.PickDrive(c.Base, 1); base != nil {
				c = base
			}
		}
		ws.baseW[inst.Seq] = c.WidthNm(fp.Stack)
		ws.baseA[inst.Seq] = c.AreaNm2(fp.Stack)
	}
}

// endpoint is pinPoint over base-drive footprints: the attraction model's
// view of a net endpoint.
func (ws *globalWorkspace) endpoint(ref netlist.PinRef, fp *floorplan.Plan) geom.Point {
	if ref.IsPort() {
		return ref.Port.Pos
	}
	inst := ref.Inst
	return geom.Pt(inst.Pos.X+ws.baseW[inst.Seq]/2, inst.Pos.Y+fp.Stack.CellHeightNm()/2)
}

// buildRanks fills nameRank with each instance's position in the
// Name-sorted order. One string sort per Global call replaces the string
// compares of every later spread/rankSpread tiebreak.
func (ws *globalWorkspace) buildRanks(nl *netlist.Netlist) {
	insts := nl.Instances
	ord := make([]int32, len(insts))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		return strings.Compare(insts[a].Name, insts[b].Name)
	})
	for i, seq := range ord {
		ws.nameRank[seq] = int32(i)
	}
}

// axisBuckets is the retained bucketed order of one rankSpread axis. Cells
// are binned by coordinate into equal-width buckets whose ranges partition
// the axis, so concatenating the per-bucket sorted runs yields the full
// (key, nameRank) order. Between passes the previous generation's
// membership, keys and sorted runs are kept: a bucket whose member list
// and keys are unchanged reuses its stored run verbatim, so a pass
// re-sorts only the buckets attraction actually disturbed.
type axisBuckets struct {
	start, members, sorted []int32
	keys                   []int64
	cursor                 []int32

	prevStart, prevMembers, prevSorted []int32
	prevKeys                           []int64
	valid                              bool
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// axisBucketOf maps a clamped coordinate to its bucket. Equal keys always
// land in the same bucket and the mapping is monotonic, so bucket ranges
// never split a run of equal keys across a sort boundary.
func axisBucketOf(k, span int64, nb int) int {
	if k < 0 {
		k = 0
	} else if k > span {
		k = span
	}
	return int(k * int64(nb) / (span + 1))
}

// rankOrder returns the movable cells as Instance.Seq values in ascending
// (axis coordinate, nameRank) order, reusing ab's retained buckets.
func (ws *globalWorkspace) rankOrder(ab *axisBuckets, cells []*netlist.Instance, span int64, axisX bool) []int32 {
	n := len(cells)
	nb := n/48 + 1
	if nb > 256 {
		nb = 256
	}
	ab.start = growI32(ab.start, nb+1)
	ab.members = growI32(ab.members, n)
	ab.sorted = growI32(ab.sorted, n)
	ab.keys = growI64(ab.keys, n)
	ab.cursor = growI32(ab.cursor, nb)
	for i := range ab.start {
		ab.start[i] = 0
	}
	key := ws.axisKey
	for _, inst := range cells {
		k := inst.Pos.X
		if !axisX {
			k = inst.Pos.Y
		}
		key[inst.Seq] = k
		ab.start[axisBucketOf(k, span, nb)+1]++
	}
	for b := 1; b <= nb; b++ {
		ab.start[b] += ab.start[b-1]
	}
	copy(ab.cursor, ab.start[:nb])
	// Fill members in instance order within each bucket: the deterministic
	// membership signature a clean-bucket check compares against.
	for _, inst := range cells {
		k := key[inst.Seq]
		b := axisBucketOf(k, span, nb)
		ab.members[ab.cursor[b]] = int32(inst.Seq)
		ab.keys[ab.cursor[b]] = k
		ab.cursor[b]++
	}
	rank := ws.nameRank
	for b := 0; b < nb; b++ {
		lo, hi := ab.start[b], ab.start[b+1]
		seg := ab.sorted[lo:hi]
		if ab.valid {
			plo, phi := ab.prevStart[b], ab.prevStart[b+1]
			if phi-plo == hi-lo &&
				slices.Equal(ab.prevMembers[plo:phi], ab.members[lo:hi]) &&
				slices.Equal(ab.prevKeys[plo:phi], ab.keys[lo:hi]) {
				copy(seg, ab.prevSorted[plo:phi])
				continue
			}
		}
		copy(seg, ab.members[lo:hi])
		slices.SortFunc(seg, func(a, c int32) int {
			if key[a] != key[c] {
				return cmp.Compare(key[a], key[c])
			}
			return cmp.Compare(rank[a], rank[c])
		})
	}
	out := ab.sorted[:n]
	// Retain this pass as the next pass's clean reference by swapping the
	// generations; the returned slice stays untouched until the next call.
	ab.start, ab.prevStart = ab.prevStart, ab.start
	ab.members, ab.prevMembers = ab.prevMembers, ab.members
	ab.keys, ab.prevKeys = ab.prevKeys, ab.keys
	ab.sorted, ab.prevSorted = ab.prevSorted, ab.sorted
	ab.valid = true
	return out
}

// movableCells rebuilds the reusable movable-cell list in instance order
// (the order every pass's sort starts from, so reuse is bit-invisible).
func (ws *globalWorkspace) movableCells(nl *netlist.Netlist) []*netlist.Instance {
	cells := ws.cells[:0]
	for _, inst := range nl.Instances {
		if !inst.Fixed {
			cells = append(cells, inst)
		}
	}
	ws.cells = cells
	return cells
}

// attract moves each movable instance toward the centroid of everything
// it connects to.
func (ws *globalWorkspace) attract(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	for i := range ws.cnt {
		ws.sumX[i] = 0
		ws.sumY[i] = 0
		ws.cnt[i] = 0
	}
	for _, n := range nl.Nets {
		if n.IsClock || n.Fanout() > opt.MaxAttractFanout {
			continue
		}
		pts := ws.pts[:0]
		insts := ws.insts[:0]
		if n.Driver != (netlist.PinRef{}) {
			pts = append(pts, ws.endpoint(n.Driver, fp))
			insts = append(insts, n.Driver.Inst)
		}
		for _, s := range n.Sinks {
			pts = append(pts, ws.endpoint(s, fp))
			insts = append(insts, s.Inst)
		}
		ws.pts, ws.insts = pts, insts
		// Each endpoint is pulled toward the centroid of the others.
		var cx, cy int64
		for _, p := range pts {
			cx += p.X
			cy += p.Y
		}
		n64 := int64(len(pts))
		for i, inst := range insts {
			if inst == nil || inst.Fixed {
				continue
			}
			// Centroid excluding self.
			ox := (cx - pts[i].X) / (n64 - 1 + boolTo64(n64 == 1))
			oy := (cy - pts[i].Y) / (n64 - 1 + boolTo64(n64 == 1))
			ws.sumX[inst.Seq] += ox
			ws.sumY[inst.Seq] += oy
			ws.cnt[inst.Seq]++
		}
	}
	for _, inst := range nl.Instances {
		if inst.Fixed || ws.cnt[inst.Seq] == 0 {
			continue
		}
		tx := ws.sumX[inst.Seq] / ws.cnt[inst.Seq]
		ty := ws.sumY[inst.Seq] / ws.cnt[inst.Seq]
		// Damped move.
		inst.Pos = geom.Pt(
			geom.Clamp64(inst.Pos.X+(tx-inst.Pos.X)*3/4, fp.Core.Lo.X, fp.Core.Hi.X),
			geom.Clamp64(inst.Pos.Y+(ty-inst.Pos.Y)*3/4, fp.Core.Lo.Y, fp.Core.Hi.Y),
		)
	}
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// spread relieves overfull density bins by pushing cells toward the least
// loaded neighbor bin. The grid and its per-bin cell lists live in the
// workspace: reset in place each call, never reallocated.
func (ws *globalWorkspace) spread(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	nb := opt.BinCount
	if nb < 4 {
		nb = 4
	}
	W, H := fp.Core.W(), fp.Core.H()
	binW := (W + int64(nb) - 1) / int64(nb)
	binH := (H + int64(nb) - 1) / int64(nb)
	if binW == 0 || binH == 0 {
		return
	}
	if cap(ws.bins) < nb*nb {
		ws.bins = make([]densityBin, nb*nb)
	}
	bins := ws.bins[:nb*nb]
	for i := range bins {
		bins[i].area = 0
		bins[i].cells = bins[i].cells[:0]
	}
	ws.bins = bins
	idx := func(p geom.Point) int {
		bx := int(geom.Clamp64(p.X/binW, 0, int64(nb-1)))
		by := int(geom.Clamp64(p.Y/binH, 0, int64(nb-1)))
		return by*nb + bx
	}
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		i := idx(inst.Pos)
		bins[i].area += ws.baseA[inst.Seq]
		bins[i].cells = append(bins[i].cells, inst)
	}
	capArea := binW * binH // 100% local density budget
	for by := 0; by < nb; by++ {
		for bx := 0; bx < nb; bx++ {
			b := &bins[by*nb+bx]
			if b.area <= capArea {
				continue
			}
			// Push the overflow (cells beyond capacity) to the least-dense
			// of the 4 neighbors, deterministically. Ordering by the
			// precomputed name rank is the Name order without the string
			// compares.
			rank := ws.nameRank
			slices.SortFunc(b.cells, func(x, y *netlist.Instance) int {
				return cmp.Compare(rank[x.Seq], rank[y.Seq])
			})
			over := b.area - capArea
			for _, inst := range b.cells {
				if over <= 0 {
					break
				}
				tx, ty := bestNeighbor(bins, nb, bx, by)
				nx := geom.Clamp64(int64(tx)*binW+binW/2, 0, W)
				ny := geom.Clamp64(int64(ty)*binH+binH/2, 0, H)
				inst.Pos = geom.Pt((inst.Pos.X+nx)/2, (inst.Pos.Y+ny)/2)
				over -= ws.baseA[inst.Seq]
			}
		}
	}
}

type densityBin struct {
	area  int64
	cells []*netlist.Instance
}

func bestNeighbor(bins []densityBin, nb, bx, by int) (int, int) {
	bestA := int64(1) << 62
	tx, ty := bx, by
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}} {
		x, y := bx+d[0], by+d[1]
		if x < 0 || y < 0 || x >= nb || y >= nb {
			continue
		}
		if a := bins[y*nb+x].area; a < bestA {
			bestA = a
			tx, ty = x, y
		}
	}
	return tx, ty
}

// buildFreeLists computes each row's free intervals after subtracting its
// blocked intervals (tap cells + halos).
func buildFreeLists(fp *floorplan.Plan, blockages map[int][]geom.Interval) [][]geom.Interval {
	free := make([][]geom.Interval, len(fp.Rows))
	for i, r := range fp.Rows {
		ivs := []geom.Interval{{Lo: r.X0, Hi: r.X1}}
		blocked := append([]geom.Interval(nil), blockages[i]...)
		slices.SortFunc(blocked, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		for _, b := range blocked {
			var next []geom.Interval
			for _, f := range ivs {
				if !f.Overlaps(b) {
					next = append(next, f)
					continue
				}
				if b.Lo > f.Lo {
					next = append(next, geom.Interval{Lo: f.Lo, Hi: b.Lo})
				}
				if b.Hi < f.Hi {
					next = append(next, geom.Interval{Lo: b.Hi, Hi: f.Hi})
				}
			}
			ivs = next
		}
		free[i] = ivs
	}
	return free
}

// legalOrder returns the movable instances in legalization order: wide
// cells first within global-X order bands for stability, names breaking
// the remaining ties.
func legalOrder(nl *netlist.Netlist) []*netlist.Instance {
	movable := make([]*netlist.Instance, 0, len(nl.Instances))
	for _, inst := range nl.Instances {
		if !inst.Fixed {
			movable = append(movable, inst)
		}
	}
	slices.SortFunc(movable, func(a, b *netlist.Instance) int {
		if a.Pos.X != b.Pos.X {
			return cmp.Compare(a.Pos.X, b.Pos.X)
		}
		if a.Cell.WidthCPP != b.Cell.WidthCPP {
			return cmp.Compare(b.Cell.WidthCPP, a.Cell.WidthCPP)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return movable
}

// legalWindows are the escalating row-search windows of placeOne: a full
// local row spills to a neighbor row instead of teleporting along its own
// row. The last window is replaced by the row count at probe time.
var legalWindows = [3]int{3, 8, -1}

// placeOne finds a cell's legal slot: it jointly minimizes X displacement
// and row distance over windows of increasing size, returning the chosen
// row and X. It never commits — the caller takes the slot.
func placeOne(free [][]geom.Interval, nRows int, rowH, cpp int64, targetRow int, tx, w int64) (row int, x int64, ok bool) {
	for _, window := range legalWindows {
		if window < 0 {
			window = nRows
		}
		bestCost := int64(1) << 62
		bestRow, bestX := -1, int64(0)
		for d := 0; d <= window; d++ {
			rowPenalty := int64(d) * rowH
			if rowPenalty >= bestCost {
				break
			}
			for _, ri := range [2]int{targetRow - d, targetRow + d} {
				if ri < 0 || ri >= nRows || (d == 0 && ri != targetRow) {
					continue
				}
				if px, pcost, pok := probe(free[ri], tx, w, cpp); pok {
					if total := pcost + rowPenalty; total < bestCost {
						bestCost = total
						bestRow, bestX = ri, px
					}
				}
			}
		}
		if bestRow >= 0 {
			return bestRow, bestX, true
		}
	}
	return 0, 0, false
}

// Legalize snaps every movable instance onto row sites without overlaps,
// avoiding blocked intervals. It fails when the design cannot be legalized
// (e.g. utilization above the tap-cell cap).
func Legalize(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval) error {
	cpp := fp.Stack.CPPNm
	rowH := fp.Stack.CellHeightNm()
	free := buildFreeLists(fp, blockages)
	for _, inst := range legalOrder(nl) {
		w := inst.Cell.WidthNm(fp.Stack)
		targetRow := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(len(fp.Rows)-1)))
		row, x, ok := placeOne(free, len(fp.Rows), rowH, cpp, targetRow, inst.Pos.X, w)
		if !ok {
			return fmt.Errorf("place: cannot legalize %s (%d sites): placement violation",
				inst.Name, inst.Cell.WidthCPP)
		}
		take(&free[row], x, w)
		inst.Pos = geom.Pt(x, fp.Rows[row].Y)
	}
	return nil
}

// probe finds the best slot in a row's free list without committing.
func probe(free []geom.Interval, target, w, cpp int64) (int64, int64, bool) {
	bestCost := int64(1) << 62
	var bestX int64
	found := false
	for _, f := range free {
		lo := geom.SnapDown(f.Lo+cpp-1, 0, cpp)
		hi := f.Hi - w
		if hi < lo {
			continue
		}
		x := geom.Clamp64(target, lo, hi)
		x = geom.SnapDown(x, 0, cpp)
		if x < lo {
			x = lo
		}
		if cost := geom.Abs64(x - target); cost < bestCost {
			bestCost, bestX, found = cost, x, true
		}
	}
	return bestX, bestCost, found
}

// take commits a slot previously returned by probe, splicing the free
// list in place instead of rebuilding it.
func take(free *[]geom.Interval, x, w int64) {
	f := *free
	for i := range f {
		iv := f[i]
		if x < iv.Lo || x+w > iv.Hi {
			continue
		}
		hasL := x > iv.Lo
		hasR := x+w < iv.Hi
		switch {
		case hasL && hasR:
			f[i] = geom.Interval{Lo: iv.Lo, Hi: x}
			*free = slices.Insert(f, i+1, geom.Interval{Lo: x + w, Hi: iv.Hi})
		case hasL:
			f[i] = geom.Interval{Lo: iv.Lo, Hi: x}
		case hasR:
			f[i] = geom.Interval{Lo: x + w, Hi: iv.Hi}
		default:
			*free = append(f[:i], f[i+1:]...)
		}
		return
	}
	panic("place: take without matching probe")
}

// CheckLegal verifies that no two instances overlap, that all instances
// sit on rows inside the core, and that no instance intersects a blockage.
func CheckLegal(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval) error {
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	type span struct {
		lo, hi int64
		seq    int32
	}
	// Counting layout into one flat arena, rows as sub-slices: no per-row
	// map or string traffic (names resolve from Seq only on the failure
	// path).
	cnt := make([]int32, nRows+1)
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		if inst.Pos.Y%rowH != 0 {
			return fmt.Errorf("place: %s not on a row (y=%d)", inst.Name, inst.Pos.Y)
		}
		ri := int(inst.Pos.Y / rowH)
		if ri < 0 || ri >= nRows {
			return fmt.Errorf("place: %s outside core rows", inst.Name)
		}
		cnt[ri+1]++
	}
	for i := 0; i < nRows; i++ {
		cnt[i+1] += cnt[i]
	}
	spans := make([]span, cnt[nRows])
	fill := make([]int32, nRows)
	copy(fill, cnt[:nRows])
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		ri := int(inst.Pos.Y / rowH)
		w := inst.Cell.WidthNm(fp.Stack)
		if inst.Pos.X < fp.Rows[ri].X0 || inst.Pos.X+w > fp.Rows[ri].X1 {
			return fmt.Errorf("place: %s outside row span", inst.Name)
		}
		for _, b := range blockages[ri] {
			if inst.Pos.X < b.Hi && b.Lo < inst.Pos.X+w {
				return fmt.Errorf("place: %s overlaps tap blockage in row %d", inst.Name, ri)
			}
		}
		spans[fill[ri]] = span{inst.Pos.X, inst.Pos.X + w, int32(inst.Seq)}
		fill[ri]++
	}
	for ri := 0; ri < nRows; ri++ {
		rs := spans[cnt[ri]:cnt[ri+1]]
		slices.SortFunc(rs, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(rs); i++ {
			if rs[i].lo < rs[i-1].hi {
				return fmt.Errorf("place: %s overlaps %s in row %d",
					nl.Instances[rs[i].seq].Name, nl.Instances[rs[i-1].seq].Name, ri)
			}
		}
	}
	return nil
}

// Refine improves a legal placement without breaking legality: cells slide
// within their row gaps toward the median X of their connected pins.
// Typical detailed-placement cleanup after legalization. Blockages are
// honored by clamping each slide against the row's blocked intervals.
func Refine(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, passes int) {
	// A Background context never cancels, so the error is unreachable.
	_ = RefineCtx(context.Background(), nl, fp, blockages, passes)
}

// RefineCtx is Refine under a context: cancellation is observed between
// row-sliding passes and at every row within a pass. A cancelled
// refinement leaves the placement legal (each completed slide preserves
// legality) but callers treat it as unusable for determinism.
func RefineCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, passes int) error {
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	rows := make([][]*netlist.Instance, nRows)
	widths := make([]int64, len(nl.Instances))
	for _, inst := range nl.Instances {
		widths[inst.Seq] = inst.Cell.WidthNm(fp.Stack)
		if inst.Fixed {
			continue
		}
		ri := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(nRows-1)))
		rows[ri] = append(rows[ri], inst)
	}
	refs := collectRefineRefs(nl)
	insts, ports := nl.Instances, nl.Ports
	var xs []int64
	desired := func(inst *netlist.Instance) int64 {
		xs = xs[:0]
		for _, r := range refs[inst.Seq] {
			if r >= 0 {
				xs = append(xs, insts[r].Pos.X+widths[r]/2)
			} else {
				xs = append(xs, ports[^r].Pos.X)
			}
		}
		if len(xs) == 0 {
			return inst.Pos.X
		}
		return medianInt64(xs)
	}
	// Post-legalization X positions in a row are unique (cells never
	// overlap), so the unstable sort is deterministic; each slide stays
	// strictly between its neighbors, so one sort covers every pass.
	for _, cellsInRow := range rows {
		slices.SortFunc(cellsInRow, func(a, b *netlist.Instance) int {
			return cmp.Compare(a.Pos.X, b.Pos.X)
		})
	}
	// Median cache with reverse-adjacency invalidation: a cell's median
	// depends only on its refs' live positions, so it stays valid until
	// one of those refs slides (ports never move). Passes after the
	// first recompute only the cells a slide actually dirtied, which is
	// the bulk of the refinement cost once the placement settles.
	nInst := len(insts)
	med := make([]int64, nInst)
	medOK := make([]bool, nInst)
	depCnt := make([]int32, nInst+1)
	for j := range refs {
		for _, r := range refs[j] {
			if r >= 0 {
				depCnt[r+1]++
			}
		}
	}
	for i := 0; i < nInst; i++ {
		depCnt[i+1] += depCnt[i]
	}
	deps := make([]int32, depCnt[nInst])
	fill := make([]int32, nInst)
	copy(fill, depCnt[:nInst])
	for j := range refs {
		for _, r := range refs[j] {
			if r >= 0 {
				deps[fill[r]] = int32(j)
				fill[r]++
			}
		}
	}
	cpp := fp.Stack.CPPNm
	done := ctx.Done()
	for pass := 0; pass < passes; pass++ {
		movedAny := false
		for ri := 0; ri < nRows; ri++ {
			cellsInRow := rows[ri]
			if len(cellsInRow) == 0 {
				continue
			}
			if err := pollCtx(ctx, done); err != nil {
				return err
			}
			for i, inst := range cellsInRow {
				w := widths[inst.Seq]
				lo := fp.Core.Lo.X
				if i > 0 {
					prev := cellsInRow[i-1]
					lo = prev.Pos.X + widths[prev.Seq]
				}
				hi := fp.Core.Hi.X - w
				if i+1 < len(cellsInRow) {
					hi = cellsInRow[i+1].Pos.X - w
				}
				if hi < lo {
					continue
				}
				// Clamp the slide span against tap blockages in this row.
				for _, b := range blockages[ri] {
					if b.Hi <= inst.Pos.X && b.Hi > lo {
						lo = b.Hi
					}
					if b.Lo >= inst.Pos.X+w && b.Lo-w < hi {
						hi = b.Lo - w
					}
				}
				if hi < lo {
					continue
				}
				seq := inst.Seq
				if !medOK[seq] {
					med[seq] = desired(inst)
					medOK[seq] = true
				}
				want := geom.Clamp64(med[seq]-w/2, lo, hi)
				want = geom.SnapDown(want, 0, cpp)
				if want < lo {
					want += cpp
				}
				if want >= lo && want <= hi && want != inst.Pos.X {
					inst.Pos = geom.Pt(want, inst.Pos.Y)
					movedAny = true
					for _, j := range deps[depCnt[seq]:depCnt[seq+1]] {
						medOK[j] = false
					}
					if len(refs[seq]) == 0 {
						// No refs: desired() falls back to the cell's
						// own X, which this slide just changed.
						medOK[seq] = false
					}
				}
			}
		}
		// A pass with zero slides is a fixed point: every later pass
		// recomputes the same medians over the same positions, so the
		// remaining passes are provable no-ops.
		if !movedAny {
			break
		}
	}
	return nil
}

// collectRefineRefs gathers every movable instance's refine endpoints —
// the other endpoints of its small nets (fanout ≤ 24), in deterministic
// pin order — into one flat arena (three allocations for the whole
// netlist instead of one slice per instance) and returns per-instance
// views indexed by Seq. Only an endpoint's X position feeds the slide
// median, so each is packed as an int64: non-negative values are an
// Instance.Seq, negative values a bit-complemented Port.Seq.
// Connectivity is static during refinement, so the refs are collected
// once; only endpoint positions are re-read per pass.
func collectRefineRefs(nl *netlist.Netlist) [][]int64 {
	refs := make([][]int64, len(nl.Instances))
	ends := make([]int, len(nl.Instances))
	arena := make([]int64, 0, 8*len(nl.Instances))
	pack := func(r netlist.PinRef) int64 {
		if r.IsPort() {
			return int64(^r.Port.Seq)
		}
		return int64(r.Inst.Seq)
	}
	for _, inst := range nl.Instances {
		consider := func(n *netlist.Net) {
			if n == nil || n.Fanout() > 24 {
				return
			}
			if n.Driver != (netlist.PinRef{}) && n.Driver.Inst != inst {
				arena = append(arena, pack(n.Driver))
			}
			for _, s := range n.Sinks {
				if s.Inst != inst {
					arena = append(arena, pack(s))
				}
			}
		}
		if !inst.Fixed {
			for pi := range inst.Cell.Inputs {
				consider(inst.ConnAt(pi))
			}
			consider(inst.OutputNet())
		}
		ends[inst.Seq] = len(arena)
	}
	start := 0
	for seq, end := range ends {
		refs[seq] = arena[start:end:end]
		start = end
	}
	return refs
}

// medianInt64 returns the (len/2)-th smallest element — the value a full
// sort would leave at xs[len(xs)/2] — via iterative quickselect,
// scrambling xs in the process. Refinement medians run once per cell per
// pass, and typical endpoint sets are large enough that selection beats
// a full sort.
func medianInt64(xs []int64) int64 {
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return xs[k]
		}
		mid := (lo + hi) / 2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
}
