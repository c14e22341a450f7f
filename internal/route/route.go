// Package route implements the global signal router of the evaluation
// flow: a 2.5-D gcell-grid router with PathFinder-style negotiated
// congestion, followed by layer assignment over the side's metal stack.
//
// The router works on one wafer side at a time; the dual-sided flow
// (internal/core) partitions the netlist per Algorithm 1 and routes the
// frontside and backside tasks independently, exactly as the paper
// describes ("the global & detailed routing are performed independently on
// both sides and two separate DEF files are generated").
//
// Congestion modeling reproduces the paper's routability mechanisms:
//
//   - edge capacity per gcell boundary = usable tracks summed over the
//     side's routing layers in that direction (so fewer layers ⇒ less
//     capacity, Figs. 12-13);
//   - cell pins consume local capacity (pin-density blockage, which is why
//     the smaller FFET cells congest the frontside when all signals stay
//     on one side, Fig. 8(c));
//   - unresolved overflow after negotiation counts as design-rule
//     violations; a run is valid only if DRV < 10 (Section IV).
//
// The inner engine is built for speed without changing routed results:
// grid edges are flat int32 ids into combined capacity/usage/history
// arrays, per-net edge sets are compact id slices with epoch-stamped
// ownership marks, the A* core runs zero-allocation over a reusable
// scratch arena (see scratch.go, heap.go), short nets search a pin
// bounding-box window that provably expands to cover the unwindowed
// optimum, and rip-up iterations use an edge→nets reverse index so only
// nets touching overflow are revisited.
package route

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Options tunes the router.
type Options struct {
	GCellNm int64 // gcell edge length
	// Iterations bounds the rip-up-and-reroute negotiation rounds.
	Iterations int
	// CapacityFactor derates raw track counts to usable routing capacity
	// (pitch DRCs, via landing, power rails).
	CapacityFactor float64
	// PinSaturation is the pin-access limit per gcell: local capacity is
	// derated by (pins/PinSaturation)^PinCrowdingExp, collapsing as the
	// gcell's pin count approaches the access limit. This is the paper's
	// routability mechanism — dense single-sided pins (small FFET cells,
	// or CFET's one-sided access) exhaust pin-access resources long
	// before raw track counts do.
	PinSaturation float64
	// PinCrowdingExp sharpens the saturation knee (>= 1).
	PinCrowdingExp float64
	// PinAccessFactor scales effective pin weight per architecture: the
	// CFET flow uses >1 because every pin must be reached from the single
	// frontside through a 4T-tall cell whose drain supervias block access
	// tracks; the FFET's symmetric structure removes them (Section II.B).
	PinAccessFactor float64
	// HistoryGain scales the accumulated congestion history cost.
	HistoryGain float64
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options {
	return Options{
		GCellNm:         1000,
		Iterations:      16,
		CapacityFactor:  2.68,
		PinSaturation:   97,
		PinCrowdingExp:  6,
		PinAccessFactor: 1.0,
		HistoryGain:     1.0,
	}
}

// Validate refuses options the router cannot run as given: a
// non-positive gcell edge, capacity factor or pin saturation, a pin
// crowding exponent or pin access factor below 1, a negative iteration
// count or history gain, and a NaN or infinite float. NewRouter and
// core.FlowConfig.Validate both run it, so no value is rewritten at run
// time.
func (o Options) Validate() error {
	switch {
	case o.GCellNm <= 0:
		return fmt.Errorf("route: gcell edge %d nm must be positive", o.GCellNm)
	case o.Iterations < 0:
		return fmt.Errorf("route: iteration count %d must not be negative", o.Iterations)
	case !(o.CapacityFactor > 0) || math.IsInf(o.CapacityFactor, 1):
		return fmt.Errorf("route: capacity factor %v must be positive and finite", o.CapacityFactor)
	case !(o.PinSaturation > 0) || math.IsInf(o.PinSaturation, 1):
		return fmt.Errorf("route: pin saturation %v must be positive and finite", o.PinSaturation)
	case !(o.PinCrowdingExp >= 1) || math.IsInf(o.PinCrowdingExp, 1):
		return fmt.Errorf("route: pin crowding exponent %v must be finite and at least 1", o.PinCrowdingExp)
	case !(o.PinAccessFactor >= 1) || math.IsInf(o.PinAccessFactor, 1):
		return fmt.Errorf("route: pin access factor %v must be finite and at least 1", o.PinAccessFactor)
	case !(o.HistoryGain >= 0) || math.IsInf(o.HistoryGain, 1):
		return fmt.Errorf("route: history gain %v must be non-negative and finite", o.HistoryGain)
	}
	return nil
}

// Pin is one net endpoint on this side. The router treats the packed
// identity opaquely — it is carried through to the Tree so extraction
// and DEF emission can resolve pins without any string plumbing.
type Pin struct {
	ID     netlist.PinID // packed instance-pin or port identity
	At     geom.Point
	CapFF  float64 // sink input capacitance (0 for the driver)
	Driver bool
}

// Net is one routing task on this side.
type Net struct {
	Name string
	// Seq is the design net's dense id (netlist.Net.Seq). The router
	// treats it opaquely except for indexing Result.Trees by it; ids must
	// be unique within one Run's net population. Both sub-nets of a
	// partitioned dual-sided net carry the same Seq — they are routed in
	// different Runs (one per side).
	Seq  int
	Pins []Pin // exactly one Driver pin
}

// TreeEdge is one edge of a routed net's RC topology.
type TreeEdge struct {
	From, To int // node indices
	Layer    tech.Layer
	LenNm    int64
	Vias     int // layer-change vias paid on this edge
}

// Tree is the routed result for one net.
type Tree struct {
	Name  string
	Nodes []geom.Point
	Edges []TreeEdge // tree edges, rooted at the driver node
	// Pins aliases the routed net's pin slice (driver first, then this
	// side's sinks); PinNode[i] is the tree node index of Pins[i]. The
	// flat table replaces the seed's per-net map[string]int keyed by
	// rendered pin names.
	Pins    []Pin
	PinNode []int32
	// DriverNode is the root node index.
	DriverNode int
	WirelenNm  int64
	// EscapeCrowding is the access-weighted pin crowding (pins_eff/limit,
	// scaled by sqrt of the access factor) at the driver's gcell. RC
	// extraction turns it into a driver escape resistance: crowded pin
	// fields force long scenic M0/M1 escapes. Splitting pins across both
	// wafer sides halves it — the paper's dual-sided timing gain.
	EscapeCrowding float64
}

// Result is the outcome of routing one side.
type Result struct {
	Side tech.Side
	// Trees is indexed by the routed net's Seq (dense design-net id);
	// entries for nets absent from this side's population are nil. Use
	// Tree for a bounds- and nil-safe lookup.
	Trees       []*Tree
	WirelenNm   int64
	ByLayerNm   map[string]int64
	ViaCount    int
	DRVs        int // overflowed gcell edges after negotiation
	MaxOverflow int
	GridW       int
	GridH       int
}

// Tree returns the routed tree of the design net with the given Seq, or
// nil when the net was not part of this side's population (or the
// receiver itself is nil — a side with no routing task).
func (r *Result) Tree(seq int) *Tree {
	if r == nil || seq < 0 || seq >= len(r.Trees) {
		return nil
	}
	return r.Trees[seq]
}

// grid is the 2.5-D routing graph for one side. Edges are addressed by
// flat int32 ids: horizontal boundary (x,y)-(x+1,y) is id hIdx(x,y) in
// [0,nH); vertical boundary (x,y)-(x,y+1) is id vIdx(x,y) in [nH,nE).
// Capacity, usage, and congestion history live in single combined
// arrays indexed by edge id, so every per-edge lookup in the hot path
// is one bounds-checked load instead of a map probe.
type grid struct {
	w, h    int
	gc      int64
	nH      int // horizontal edge count; ids >= nH are vertical
	cap     []float64
	cap0    []float64 // pristine per-edge capacity, before pin blockage
	use     []float64
	hist    []float64
	hLayers []tech.Layer
	vLayers []tech.Layer
	// pinsEff holds the access-weighted pin count per gcell (set by
	// applyPinBlockage) for escape-penalty decisions in layer assignment.
	pinsEff []float64
	pinSat  float64
}

// layerUsable is the usable fraction of a layer's raw tracks: M1 is
// consumed by pin access and via ladders, M2 partially, upper layers are
// nearly free for routing.
func layerUsable(index int) float64 {
	switch {
	case index <= 1:
		return 0.65
	case index == 2:
		return 0.70
	case index <= 4:
		return 0.90
	default:
		return 1.0
	}
}

func (g *grid) hIdx(x, y int) int32 { return int32(y*(g.w-1) + x) }
func (g *grid) vIdx(x, y int) int32 { return int32(g.nH + x*(g.h-1) + y) }
func (g *grid) numEdges() int       { return g.nH + g.w*(g.h-1) }

// edgeCells decodes an edge id into its canonical (x1,y1,x2,y2) cells.
func (g *grid) edgeCells(eid int32) (x1, y1, x2, y2 int) {
	if int(eid) < g.nH {
		e := int(eid)
		y := e / (g.w - 1)
		x := e % (g.w - 1)
		return x, y, x + 1, y
	}
	e := int(eid) - g.nH
	x := e / (g.h - 1)
	y := e % (g.h - 1)
	return x, y, x, y + 1
}

// edgeOwner is one entry of the edge→nets reverse index: the net at
// routing-order position pos owned this edge when its generation was
// gen. Entries go stale when the net is ripped up (gen bump); stale
// entries are pruned lazily whenever a list is touched.
type edgeOwner struct {
	pos int32
	gen uint32
}

// Router routes one side.
type Router struct {
	opt    Options
	side   tech.Side
	layers []tech.Layer
	core   geom.Rect
	g      *grid
	sc     *scratch

	// Negotiation state: nets in routing order, the edge→nets reverse
	// index, per-order-position rip-up candidates, and the current sweep
	// position (-1 outside a rip-up sweep).
	nets     []*netRoute
	edgeNets [][]edgeOwner
	cand     []bool
	sweepPos int

	// Cancellation state for the Run in flight: done is the context's
	// Done channel (nil when the run is not cancellable, making every
	// poll a single comparison), pollCtr rate-limits the channel check to
	// one in cancelCheckEvery A* expansions.
	ctx     context.Context
	done    <-chan struct{}
	pollCtr uint32
}

// cancelCheckEvery is the A*-expansion interval between cancellation
// checks: small enough that a cancel lands within a few thousand pops,
// large enough that the check never shows up in a profile. Must be a
// power of two.
const cancelCheckEvery = 4096

// pollCancel returns the run's cancellation error at a bounded interval
// of calls, nil otherwise.
func (r *Router) pollCancel() error {
	if r.done == nil {
		return nil
	}
	r.pollCtr++
	if r.pollCtr&(cancelCheckEvery-1) != 0 {
		return nil
	}
	select {
	case <-r.done:
		return fmt.Errorf("route: cancelled: %w", r.ctx.Err())
	default:
		return nil
	}
}

// NewRouter builds the routing grid for a side of the core area. layers
// must be the side's signal routing layers (from tech.SideRoutingLayers).
func NewRouter(core geom.Rect, side tech.Side, layers []tech.Layer, opt Options) (*Router, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("route: no routing layers on side %v", side)
	}
	w := int((core.W() + opt.GCellNm - 1) / opt.GCellNm)
	h := int((core.H() + opt.GCellNm - 1) / opt.GCellNm)
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	g := &grid{w: w, h: h, gc: opt.GCellNm, nH: (w - 1) * h}
	var capHPer, capVPer float64
	for _, l := range layers {
		tracks := float64(tech.TracksPerGCell(l, opt.GCellNm)) *
			opt.CapacityFactor * layerUsable(l.Index)
		if l.Dir == tech.Horizontal {
			capHPer += tracks
			g.hLayers = append(g.hLayers, l)
		} else {
			capVPer += tracks
			g.vLayers = append(g.vLayers, l)
		}
	}
	nE := g.numEdges()
	g.cap = make([]float64, nE)
	g.cap0 = make([]float64, nE)
	g.use = make([]float64, nE)
	g.hist = make([]float64, nE)
	for i := 0; i < g.nH; i++ {
		g.cap0[i] = capHPer
	}
	for i := g.nH; i < nE; i++ {
		g.cap0[i] = capVPer
	}
	copy(g.cap, g.cap0)
	return &Router{
		opt: opt, side: side, layers: layers, core: core, g: g,
		sc:       newScratch(w*h, nE),
		edgeNets: make([][]edgeOwner, nE),
		sweepPos: -1,
	}, nil
}

// cellOf maps a point to its gcell.
func (r *Router) cellOf(p geom.Point) (int, int) {
	x := int(geom.Clamp64(p.X/r.opt.GCellNm, 0, int64(r.g.w-1)))
	y := int(geom.Clamp64(p.Y/r.opt.GCellNm, 0, int64(r.g.h-1)))
	return x, y
}

// applyPinBlockage derates local capacity around every pin cluster: each
// gcell loses a (pins_eff/PinSaturation)^PinCrowdingExp fraction of the
// capacity on its adjacent edges. Access collapses sharply as the local
// pin count approaches the saturation limit — pin-dense gcells
// (single-sided FFET, one-side-accessed CFET) congest first.
func (r *Router) applyPinBlockage(nets []*Net) {
	g := r.g
	exp := r.opt.PinCrowdingExp
	// Normalize the saturation limit to the gcell area (limit is per µm²).
	sat := r.opt.PinSaturation * (float64(r.opt.GCellNm) / 1000 * float64(r.opt.GCellNm) / 1000)
	kappa := r.opt.PinAccessFactor
	pins := make([]float64, g.w*g.h)
	for _, n := range nets {
		for _, p := range n.Pins {
			x, y := r.cellOf(p.At)
			pins[y*g.w+x]++
		}
	}
	g.pinsEff = make([]float64, len(pins))
	for i := range pins {
		g.pinsEff[i] = pins[i] * kappa
	}
	g.pinSat = sat
	derate := func(eid int32, frac float64) {
		g.cap[eid] = math.Max(0, g.cap[eid]*(1-frac))
	}
	for y := 0; y < g.h; y++ {
		for x := 0; x < g.w; x++ {
			c := pins[y*g.w+x] * kappa
			if c == 0 {
				continue
			}
			frac := math.Pow(c/sat, exp) / 2 // each of 4 edges carries half
			// Deepest clusters keep some access; the floor is lower for
			// architectures with harder pin access (kappa > 1).
			ceil := 0.44 * math.Sqrt(kappa)
			if ceil > 0.62 {
				ceil = 0.62
			}
			if frac > ceil {
				frac = ceil
			}
			if x > 0 {
				derate(g.hIdx(x-1, y), frac)
			}
			if x < g.w-1 {
				derate(g.hIdx(x, y), frac)
			}
			if y > 0 {
				derate(g.vIdx(x, y-1), frac)
			}
			if y < g.h-1 {
				derate(g.vIdx(x, y), frac)
			}
		}
	}
}

// netRoute is internal per-net routing state.
type netRoute struct {
	net *Net
	// edges holds the net's committed grid-edge ids in commit order,
	// without duplicates (ownership marks in the scratch arena dedup
	// commits). The slice is recycled across reroutes.
	edges []int32
	hpwl  int64
	pos   int32  // position in the router's net order
	gen   uint32 // bumped on every rip-up; stales reverse-index entries
}

// Run routes all nets and returns the result with layer-assigned trees.
func (r *Router) Run(nets []*Net) (*Result, error) {
	return r.RunCtx(context.Background(), nets)
}

// RunCtx is Run under a context: cancellation is observed per routed net,
// per negotiation iteration, and — inside the A* core — every
// cancelCheckEvery expansions, so even a single huge net aborts within a
// bounded number of inner iterations. A cancelled router holds partial
// usage state; Run resets the grid, so the Router itself stays reusable.
func (r *Router) RunCtx(ctx context.Context, nets []*Net) (*Result, error) {
	r.ctx = ctx
	r.done = ctx.Done()
	r.pollCtr = 0
	defer func() { r.ctx, r.done = nil, nil }()
	for _, n := range nets {
		drivers := 0
		for _, p := range n.Pins {
			if p.Driver {
				drivers++
			}
		}
		if drivers != 1 {
			return nil, fmt.Errorf("route: net %s has %d drivers", n.Name, drivers)
		}
	}
	// Restore pristine grid state so a reused Router routes exactly like
	// a fresh one: usage and history from a previous Run would otherwise
	// act as phantom congestion, and pin blockage would derate capacity
	// cumulatively.
	g := r.g
	copy(g.cap, g.cap0)
	for i := range g.use {
		g.use[i] = 0
		g.hist[i] = 0
	}
	r.applyPinBlockage(nets)

	order := make([]*netRoute, 0, len(nets))
	var pts []geom.Point
	for _, n := range nets {
		pts = pts[:0]
		for _, p := range n.Pins {
			pts = append(pts, p.At)
		}
		order = append(order, &netRoute{net: n, hpwl: geom.HPWL(pts)})
	}
	// (hpwl, name) is a total order over a side's nets, so the unstable
	// pdqsort yields the same routing order the seed's stable sort did.
	sort.Slice(order, func(i, j int) bool {
		if order[i].hpwl != order[j].hpwl {
			return order[i].hpwl < order[j].hpwl
		}
		return order[i].net.Name < order[j].net.Name
	})
	for i, nr := range order {
		nr.pos = int32(i)
	}
	r.nets = order
	r.cand = make([]bool, len(order))
	// Retire reverse-index entries from any previous Run on this router:
	// their positions/generations refer to the old net order and would
	// otherwise alias the fresh nets' generation 0.
	for i := range r.edgeNets {
		r.edgeNets[i] = r.edgeNets[i][:0]
	}

	presFac := 1.0
	for _, nr := range order {
		if err := r.routeNet(nr, presFac); err != nil {
			return nil, err
		}
	}
	prevOver := 1 << 30
	stale := 0
	for it := 0; it < r.opt.Iterations; it++ {
		if r.done != nil {
			select {
			case <-r.done:
				return nil, fmt.Errorf("route: cancelled: %w", ctx.Err())
			default:
			}
		}
		over := r.overflowedEdges()
		if len(over) == 0 {
			break
		}
		// Abandon hopeless negotiations early: the run is invalid anyway
		// once overflow stops improving.
		if len(over) >= prevOver {
			stale++
			if stale >= 4 {
				break
			}
		} else {
			stale = 0
		}
		prevOver = len(over)
		r.accumulateHistory()
		presFac *= 1.7
		// Rip up and reroute nets that cross overflowed edges. The
		// reverse index narrows the sweep to nets actually touching
		// overflow; the live crossesOverflow check below then makes the
		// rip decision at the net's sweep position, exactly as a full
		// scan over every net would (usage committed earlier in the same
		// sweep is visible, and overflow created mid-sweep re-marks the
		// not-yet-visited owners of the offending edge).
		for i := range r.cand {
			r.cand[i] = false
		}
		for _, eid := range over {
			for _, o := range r.edgeNets[eid] {
				if int(o.pos) < len(order) && order[o.pos].gen == o.gen {
					r.cand[o.pos] = true
				}
			}
		}
		for i, nr := range order {
			if !r.cand[i] {
				continue
			}
			r.sweepPos = i
			if !r.crossesOverflow(nr) {
				continue
			}
			r.unroute(nr)
			if err := r.routeNet(nr, presFac); err != nil {
				r.sweepPos = -1
				return nil, err
			}
		}
		r.sweepPos = -1
	}

	maxSeq := -1
	for _, n := range nets {
		if n.Seq > maxSeq {
			maxSeq = n.Seq
		}
	}
	res := &Result{
		Side:      r.side,
		Trees:     make([]*Tree, maxSeq+1),
		ByLayerNm: make(map[string]int64),
		GridW:     r.g.w,
		GridH:     r.g.h,
	}
	// Tree structs, pin-node tables and the Nodes/Edges payloads are all
	// carved from flat arenas sized up front: the result owns them, and
	// per-net allocation inside the tree-build loop drops to zero. A
	// routed tree has at most len(edges)+1 nodes (it is a tree; pins bind
	// to cells already on it), and the carves are capacity-capped so a
	// stray append reallocates instead of clobbering the next net.
	totalPins, totalEdges := 0, 0
	for _, n := range nets {
		totalPins += len(n.Pins)
	}
	for _, nr := range order {
		totalEdges += len(nr.edges)
	}
	treeStore := make([]Tree, len(order))
	pinNodeArena := make([]int32, totalPins)
	nodeArena := make([]geom.Point, totalEdges+len(order))
	edgeArena := make([]TreeEdge, totalEdges)
	carved, nodeAt, edgeAt := 0, 0, 0
	for i, nr := range order {
		k := len(nr.net.Pins)
		nn, ne := len(nr.edges)+1, len(nr.edges)
		t := &treeStore[i]
		r.buildTree(nr, t, pinNodeArena[carved:carved+k:carved+k],
			nodeArena[nodeAt:nodeAt:nodeAt+nn],
			edgeArena[edgeAt:edgeAt:edgeAt+ne])
		carved += k
		nodeAt += nn
		edgeAt += ne
		if res.Trees[nr.net.Seq] != nil {
			return nil, fmt.Errorf("route: duplicate net Seq %d (%s and %s)",
				nr.net.Seq, res.Trees[nr.net.Seq].Name, nr.net.Name)
		}
		res.Trees[nr.net.Seq] = t
		res.WirelenNm += t.WirelenNm
		for _, e := range t.Edges {
			if e.Layer.Name != "" {
				res.ByLayerNm[e.Layer.Name] += e.LenNm
			}
			res.ViaCount += e.Vias
		}
	}
	res.DRVs, res.MaxOverflow = r.countOverflow()
	return res, nil
}

// routeNet routes the net's MST topology with A*, updating usage. On
// cancellation the net's partial commits stay in the usage arrays; the
// caller abandons the whole Run (the next Run resets the grid).
func (r *Router) routeNet(nr *netRoute, presFac float64) error {
	s := r.sc
	s.beginNet()
	nr.edges = nr.edges[:0]
	n := nr.net
	k := len(n.Pins)
	s.ensurePins(k)
	for i, p := range n.Pins {
		x, y := r.cellOf(p.At)
		s.pinX[i], s.pinY[i] = int32(x), int32(y)
	}
	// Prim MST over pin gcells (Manhattan metric), O(k²) via cached
	// nearest-tree distances. Tie-breaking matches the seed's O(k³)
	// scan exactly: the joining pin is the lowest index achieving the
	// minimum distance, and its tree anchor the lowest index realizing
	// that distance.
	dist := func(i, j int) int32 {
		return geom.Abs(s.pinX[i]-s.pinX[j]) + geom.Abs(s.pinY[i]-s.pinY[j])
	}
	s.inTree[0] = true
	for i := 1; i < k; i++ {
		s.minDist[i] = dist(i, 0)
	}
	for connected := 1; connected < k; connected++ {
		best, bestD := -1, int32(math.MaxInt32)
		for i := 1; i < k; i++ {
			if !s.inTree[i] && s.minDist[i] < bestD {
				bestD, best = s.minDist[i], i
			}
		}
		bestFrom := -1
		for j := 0; j < k; j++ {
			if s.inTree[j] && dist(best, j) == bestD {
				bestFrom = j
				break
			}
		}
		if err := r.astar(nr, int(s.pinX[bestFrom]), int(s.pinY[bestFrom]),
			int(s.pinX[best]), int(s.pinY[best]), presFac); err != nil {
			return err
		}
		s.inTree[best] = true
		for i := 1; i < k; i++ {
			if !s.inTree[i] {
				if d := dist(i, best); d < s.minDist[i] {
					s.minDist[i] = d
				}
			}
		}
	}
	return nil
}

// ownedEdgeCost is the near-free cost of re-riding an edge the net
// already committed (shared trunk).
const ownedEdgeCost = 0.05

// edgeCost is the negotiated-congestion cost of taking a grid edge.
func (r *Router) edgeCost(eid int32, presFac float64) float64 {
	g := r.g
	cap, use, hist := g.cap[eid], g.use[eid], g.hist[eid]
	cost := 1.0 + r.opt.HistoryGain*hist
	if cap <= 0 {
		return cost + 8*presFac
	}
	u := (use + 1) / cap
	if u > 1 {
		cost += presFac * (2 + 4*(u-1))
	} else if u > 0.6 {
		cost += 0.8 * (u - 0.6) / 0.4
	}
	return cost
}

// astarWindowMargin is the initial bounding-box margin (in gcells) for
// windowed 2-pin searches.
const astarWindowMargin = 4

// astar routes one 2-pin connection and commits its edges to the net.
//
// When the net owns no edges yet (every 2-pin net, and the first segment
// of every multi-pin net) the search runs inside the pin bounding box
// plus a margin, expanding until the result is provably identical to an
// unwindowed search: with every non-owned edge costing ≥ 1 the Manhattan
// heuristic is consistent, so the full search only pops cells v with
// dist(s,v)+h(v) ≤ C*, i.e. cells at most (C*−manhattan)/2 outside the
// pin bbox (and pushes one ring further). If the windowed cost C
// satisfies C − manhattan ≤ 2·(margin−1), then C* ≤ C implies the window
// already contained every cell the full search would have touched, hence
// C = C* and the pop order — and committed path — are bit-identical.
// Otherwise the margin grows and the search re-runs. Segments of nets
// with owned (near-free) edges break the cost ≥ 1 premise and run
// unwindowed.
func (r *Router) astar(nr *netRoute, sx, sy, tx, ty int, presFac float64) error {
	g, s := r.g, r.sc
	if sx == tx && sy == ty {
		return nil
	}
	manh := float64(geom.Abs(sx-tx) + geom.Abs(sy-ty))
	lox, loy, hix, hiy := 0, 0, g.w-1, g.h-1
	windowed := len(nr.edges) == 0
	margin := astarWindowMargin
	for {
		if windowed {
			lox = max(min(sx, tx)-margin, 0)
			loy = max(min(sy, ty)-margin, 0)
			hix = min(max(sx, tx)+margin, g.w-1)
			hiy = min(max(sy, ty)+margin, g.h-1)
		}
		cost, found, err := r.search(nr, sx, sy, tx, ty, presFac, lox, loy, hix, hiy)
		if err != nil {
			return err
		}
		if !windowed {
			break
		}
		full := lox == 0 && loy == 0 && hix == g.w-1 && hiy == g.h-1
		if full || (found && cost-manh <= float64(2*(margin-1))) {
			break
		}
		need := int((cost-manh)/2) + 2
		margin *= 2
		if margin < need {
			margin = need
		}
	}

	// Walk back and commit edges.
	cx, cy := tx, ty
	for !(cx == sx && cy == sy) {
		cell := int32(cy*g.w + cx)
		if s.visitEpoch[cell] != s.epoch {
			return nil // unreachable; should not happen on a connected grid
		}
		p := s.prev[cell]
		if p < 0 {
			return nil
		}
		px, py := int(p)%g.w, int(p)/g.w
		var eid int32
		if py == cy {
			eid = g.hIdx(min(px, cx), cy)
		} else {
			eid = g.vIdx(cx, min(py, cy))
		}
		if s.ownEpoch[eid] != s.netEpoch {
			s.ownEpoch[eid] = s.netEpoch
			nr.edges = append(nr.edges, eid)
			wasOver := g.use[eid] > g.cap[eid]
			g.use[eid]++
			r.addOwner(eid, nr)
			if r.sweepPos >= 0 && !wasOver && g.use[eid] > g.cap[eid] {
				// This commit just overflowed the edge mid-sweep: the
				// edge's other owners later in the order must be
				// re-examined, as a full rip-up scan would have done.
				for _, o := range r.edgeNets[eid] {
					if int(o.pos) > r.sweepPos && int(o.pos) < len(r.nets) &&
						r.nets[o.pos].gen == o.gen {
						r.cand[o.pos] = true
					}
				}
			}
		}
		cx, cy = px, py
	}
	return nil
}

// search runs one A* pass restricted to the [lox,hix]×[loy,hiy] window,
// leaving dist/prev in the scratch arena, and returns the target's
// g-cost. It allocates nothing once the frontier slice has warmed up.
func (r *Router) search(nr *netRoute, sx, sy, tx, ty int, presFac float64, lox, loy, hix, hiy int) (float64, bool, error) {
	g, s := r.g, r.sc
	s.beginSearch()
	s.pq.reset()
	sid := int32(sy*g.w + sx)
	tid := int32(ty*g.w + tx)
	s.pq.push(pqItem{node: sid, cost: 0,
		est: float64(geom.Abs(sx-tx) + geom.Abs(sy-ty))})
	s.touch(sid)
	s.dist[sid] = 0
	for s.pq.len() > 0 {
		if err := r.pollCancel(); err != nil {
			return 0, false, err
		}
		cur := s.pq.pop()
		if cur.node == tid {
			return cur.cost, true, nil
		}
		if cur.cost > s.dist[cur.node] {
			continue
		}
		cx, cy := int(cur.node)%g.w, int(cur.node)/g.w
		// Neighbors in the seed's relaxation order: -x, +x, -y, +y.
		var nx, ny, eids [4]int32
		steps := 0
		if cx > lox {
			nx[steps], ny[steps], eids[steps] = int32(cx-1), int32(cy), g.hIdx(cx-1, cy)
			steps++
		}
		if cx < hix {
			nx[steps], ny[steps], eids[steps] = int32(cx+1), int32(cy), g.hIdx(cx, cy)
			steps++
		}
		if cy > loy {
			nx[steps], ny[steps], eids[steps] = int32(cx), int32(cy-1), g.vIdx(cx, cy-1)
			steps++
		}
		if cy < hiy {
			nx[steps], ny[steps], eids[steps] = int32(cx), int32(cy+1), g.vIdx(cx, cy)
			steps++
		}
		for i := 0; i < steps; i++ {
			// Edges already owned by this net are free (shared trunk).
			var c float64
			if s.ownEpoch[eids[i]] == s.netEpoch {
				c = ownedEdgeCost
			} else {
				c = r.edgeCost(eids[i], presFac)
			}
			nd := cur.cost + c
			nid := ny[i]*int32(g.w) + nx[i]
			s.touch(nid)
			if nd < s.dist[nid] {
				s.dist[nid] = nd
				s.prev[nid] = cur.node
				s.pq.push(pqItem{node: nid, cost: nd,
					est: nd + float64(geom.Abs(int(nx[i])-tx)+geom.Abs(int(ny[i])-ty))})
			}
		}
	}
	return math.MaxFloat64, false, nil
}

// addOwner records the net as an owner of the edge in the reverse index,
// pruning entries staled by rip-ups so lists stay bounded and the append
// reuses capacity in steady state.
func (r *Router) addOwner(eid int32, nr *netRoute) {
	owners := r.edgeNets[eid]
	kept := owners[:0]
	for _, o := range owners {
		if int(o.pos) < len(r.nets) && r.nets[o.pos].gen == o.gen {
			kept = append(kept, o)
		}
	}
	r.edgeNets[eid] = append(kept, edgeOwner{pos: nr.pos, gen: nr.gen})
}

// unroute removes the net's edges from usage.
func (r *Router) unroute(nr *netRoute) {
	g := r.g
	for _, eid := range nr.edges {
		g.use[eid]--
	}
	nr.edges = nr.edges[:0]
	nr.gen++ // stales this net's reverse-index entries
}

// crossesOverflow reports whether the net uses an overflowed edge.
func (r *Router) crossesOverflow(nr *netRoute) bool {
	g := r.g
	for _, eid := range nr.edges {
		if g.use[eid] > g.cap[eid] {
			return true
		}
	}
	return false
}

// overflowedEdges returns the ids of all currently overflowed edges,
// reusing the scratch slice.
func (r *Router) overflowedEdges() []int32 {
	g := r.g
	out := r.sc.over[:0]
	for i := range g.cap {
		if g.use[i] > g.cap[i] {
			out = append(out, int32(i))
		}
	}
	r.sc.over = out
	return out
}

func (r *Router) accumulateHistory() {
	g := r.g
	for i := range g.cap {
		if g.use[i] > g.cap[i] {
			g.hist[i] += (g.use[i] - g.cap[i]) / math.Max(g.cap[i], 1)
		}
	}
}

// drvThreshold is the overflow (in tracks) above which an edge counts as
// a design-rule violation. Overflow at or below the threshold is assumed
// recoverable by detailed routing (track swaps, off-grid jogs).
const drvThreshold = 1.5

// countOverflow returns (violating edge count, max overflow amount).
func (r *Router) countOverflow() (int, int) {
	g := r.g
	n := 0
	maxOv := 0.0
	for i := range g.cap {
		ov := g.use[i] - g.cap[i]
		if ov > drvThreshold {
			n++
		}
		if ov > maxOv {
			maxOv = ov
		}
	}
	return n, int(maxOv + 0.5)
}
