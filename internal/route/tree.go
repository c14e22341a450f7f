package route

import (
	"hash/fnv"
	"math"

	"repro/internal/geom"
	"repro/internal/tech"
)

// Layer assignment: nets are binned by total routed length; longer nets
// ride higher (thicker, lower-R) layers, clamped to what the routing
// pattern actually provides. Reducing the pattern's layer count therefore
// forces long nets onto resistive low metals — the power/performance cost
// mechanism of the paper's Figs. 12-13.
const (
	shortNetUm = 3.0
	midNetUm   = 10.0
	longNetUm  = 30.0
)

// classIndex returns the desired metal index band for a net length.
func classIndex(lenUm float64) int {
	switch {
	case lenUm <= shortNetUm:
		return 2
	case lenUm <= midNetUm:
		return 4
	case lenUm <= longNetUm:
		return 9
	default:
		return 12
	}
}

// pickLayer selects the routing layer for a direction: the highest layer
// with Index <= want, alternating between the top two candidates by net
// hash for balance. It tracks the last two matching layers in slice
// order instead of materializing a candidate slice (this runs once per
// routed tree edge).
func pickLayer(layers []tech.Layer, dir tech.Direction, want int, salt uint32) (tech.Layer, bool) {
	var last, secondLast tech.Layer
	count := 0
	for _, l := range layers {
		if l.Dir == dir && l.Index <= want {
			secondLast = last
			last = l
			count++
		}
	}
	if count == 0 {
		// Nothing at or below the class: take the lowest available in dir.
		var lowest tech.Layer
		found := false
		for _, l := range layers {
			if l.Dir == dir && (!found || l.Index < lowest.Index) {
				lowest = l
				found = true
			}
		}
		return lowest, found
	}
	// Matches are visited in ascending index order (stack order); take one
	// of the two highest for load balance.
	if count >= 2 && salt&1 == 1 {
		return secondLast, true
	}
	return last, true
}

func netSalt(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32()
}

// buildTree converts a net's committed grid edges into a rooted RC tree
// with layer assignment, filling the caller-provided Tree, pin-node
// table, and Nodes/Edges payload slices (pinNode must have
// len(nr.net.Pins) slots; nodes/edges must be empty with capacity for
// len(nr.edges)+1 and len(nr.edges) entries — Run carves all three from
// result-owned arenas). All intermediate state (node ids, adjacency, BFS
// bookkeeping) lives in the router's epoch-stamped scratch arrays, so
// this allocates nothing.
func (r *Router) buildTree(nr *netRoute, t *Tree, pinNode []int32, nodes []geom.Point, edges []TreeEdge) {
	g, s := r.g, r.sc
	*t = Tree{
		Name:    nr.net.Name,
		Nodes:   nodes,
		Edges:   edges,
		Pins:    nr.net.Pins,
		PinNode: pinNode,
	}
	s.beginTree()

	cellPos := func(c int32) geom.Point {
		x, y := int64(int(c)%g.w), int64(int(c)/g.w)
		return geom.Pt(x*g.gc+g.gc/2, y*g.gc+g.gc/2)
	}
	ensureNode := func(c int32) int {
		s.touchTree(c)
		if n := s.tNode[c]; n >= 0 {
			return int(n)
		}
		n := len(t.Nodes)
		t.Nodes = append(t.Nodes, cellPos(c))
		s.tNode[c] = int32(n)
		return n
	}

	// Adjacency from committed edges (a tree cell has at most 4 nbrs).
	addAdj := func(a, b int32) {
		s.touchTree(a)
		s.tAdj[4*int(a)+int(s.tAdjN[a])] = b
		s.tAdjN[a]++
	}
	for _, eid := range nr.edges {
		x1, y1, x2, y2 := g.edgeCells(eid)
		a := int32(y1*g.w + x1)
		b := int32(y2*g.w + x2)
		addAdj(a, b)
		addAdj(b, a)
	}

	// Driver cell is the BFS root.
	var droot int32
	for _, p := range nr.net.Pins {
		if p.Driver {
			x, y := r.cellOf(p.At)
			droot = int32(y*g.w + x)
			break
		}
	}
	t.DriverNode = ensureNode(droot)

	// Deterministic BFS. Nets that route through congested regions are
	// demoted one layer class: when upper tracks are contended the
	// assignment falls back to lower, more resistive metals. This couples
	// congestion to delay (and hence achieved frequency), the effect the
	// paper's dual-sided routing relieves.
	totalLenUm := float64(len(nr.edges)) * float64(g.gc) / 1000.0
	want := classIndex(totalLenUm)
	// Congestion demotion: heavy contention on the net's route pushes it
	// off the upper tracks onto resistive low metals.
	if r.congestedShare(nr) > 0.45 {
		want = demote(want)
	}
	// Record driver-side pin crowding for the extraction escape model.
	if g.pinsEff != nil && g.pinSat > 0 {
		t.EscapeCrowding = g.pinsEff[droot] / g.pinSat * math.Sqrt(r.opt.PinAccessFactor)
	}
	salt := netSalt(nr.net.Name)

	s.tVisited[droot] = true // droot was touched by ensureNode above
	queue := s.tQueue[:0]
	queue = append(queue, droot)
	for qh := 0; qh < len(queue); qh++ {
		cur := queue[qh]
		cx := int(cur) % g.w
		nbrs := s.tAdj[4*int(cur) : 4*int(cur)+int(s.tAdjN[cur])]
		sortNbrs(nbrs)
		for _, nb := range nbrs {
			if s.tVisited[nb] {
				continue
			}
			s.tVisited[nb] = true
			nx := int(nb) % g.w
			dir := tech.Horizontal
			dirCode := int8(0)
			if nx == cx {
				dir = tech.Vertical
				dirCode = 1
			}
			layer, ok := pickLayer(r.layers, dir, want, salt)
			vias := 0
			if pd := s.tParentDir[cur]; pd >= 0 && pd != dirCode {
				vias = 1 // bend between the two assigned layers
			}
			e := TreeEdge{
				From:  ensureNode(cur),
				To:    ensureNode(nb),
				LenNm: g.gc,
				Vias:  vias,
			}
			if ok {
				e.Layer = layer
			}
			t.Edges = append(t.Edges, e)
			t.WirelenNm += g.gc
			s.tParentDir[nb] = dirCode
			queue = append(queue, nb)
		}
	}
	s.tQueue = queue

	// Bind pins to their gcell nodes, by pin position.
	for i, p := range nr.net.Pins {
		x, y := r.cellOf(p.At)
		t.PinNode[i] = int32(ensureNode(int32(y*g.w + x)))
	}
}

// demote drops one layer class.
func demote(want int) int {
	switch {
	case want >= 12:
		return 9
	case want >= 9:
		return 4
	case want >= 4:
		return 2
	default:
		return 1
	}
}

// congestedShare returns the fraction of the net's grid edges whose
// utilization exceeds 80% of capacity.
func (r *Router) congestedShare(nr *netRoute) float64 {
	if len(nr.edges) == 0 {
		return 0
	}
	g := r.g
	hot := 0
	for _, eid := range nr.edges {
		use, cap := g.use[eid], g.cap[eid]
		if cap <= 0 || use > 0.8*cap {
			hot++
		}
	}
	return float64(hot) / float64(len(nr.edges))
}

// sortNbrs insertion-sorts a tiny (≤4) neighbor list ascending, matching
// the deterministic BFS expansion order of the tree builder.
func sortNbrs(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
