// Package extract implements parasitic extraction for the evaluation flow:
// per-net RC trees built from routed topologies, Elmore delay from the
// driver to every sink, and total net capacitance for delay and power
// models.
//
// For FFET nets routed on both wafer sides, the front and back trees are
// joined at the driver through the Drain Merge via — the paper's
// "dual-sided RC extraction" after the per-side DEFs are merged
// (Section III.C). The merged-DEF path itself is exercised through
// def.Merge; extraction consumes the same routed topology.
package extract

import (
	"math"

	"repro/internal/route"
	"repro/internal/tech"
)

// Options tunes extraction.
type Options struct {
	// DrainMergeRKOhm is the series resistance of the Drain Merge via
	// joining the two sides of a dual-sided output pin.
	DrainMergeRKOhm float64
	// PinStubRKOhm models the local M0 stub + via landing at each pin.
	PinStubRKOhm float64
	// PinStubCfF is the local stub capacitance at each routed pin.
	PinStubCfF float64
	// EscapeK scales the driver escape resistance with pin crowding:
	// R_escape = PinStubRKOhm * EscapeK * crowding². Crowded pin fields
	// (dense single-sided cells) force long scenic M0/M1 escapes; the
	// dual-sided FFET halves crowding per side.
	EscapeK float64
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options {
	return Options{
		DrainMergeRKOhm: 0.05,
		PinStubRKOhm:    0.12,
		PinStubCfF:      0.05,
		EscapeK:         8.0,
	}
}

// NetInput describes one net to extract. SinkPos and SinkCapFF are
// parallel slices over the net's sinks, in the netlist's canonical sink
// order; SinkPos locates each sink in the per-side routed trees by
// dense position — no name-keyed lookup anywhere in extraction.
type NetInput struct {
	Name  string
	Front *route.Tree // nil when the net has no frontside routing
	Back  *route.Tree // nil when single-sided
	// SinkPos packs each sink's routed location as
	// (index into its side sub-net's Pins << 1) | side bit
	// (0 front, 1 back); Tree.PinNode[index] is the sink's tree node.
	// Aligned with SinkCapFF and with NetRC.ElmorePs.
	SinkPos []int32
	// SinkCapFF is the input capacitance (fF) of each sink.
	SinkCapFF []float64
}

// NetRC is the extracted view consumed by STA and power analysis.
type NetRC struct {
	Name string
	// TotalCapFF includes wire, via, stub and sink pin capacitance — the
	// load seen by the driver and the switched capacitance for power.
	TotalCapFF float64
	// WireCapFF is the wire+stub portion only.
	WireCapFF float64
	// ElmorePs is the Elmore delay from the driver output to each sink,
	// aligned with NetInput.SinkPos/SinkCapFF (the net's canonical sink
	// order).
	ElmorePs []float64
	// WirelenNm is the total routed length across both sides.
	WirelenNm int64
}

// Extractor owns reusable per-net scratch so extracting thousands of
// nets in a flow allocates only the returned NetRC values. The zero
// value is ready to use; an Extractor is not safe for concurrent use.
type Extractor struct {
	childStart []int32 // children of u: childList[childStart[u]:childStart[u+1]]
	childList  []int32
	cursor     []int32
	edgeIdx    []int32 // index into t.Edges of the edge reaching the node, -1 at roots
	nodeCap    []float64
	down       []float64
	elmore     []float64
	order      []int32
}

// NewExtractor returns an empty reusable extractor.
func NewExtractor() *Extractor { return &Extractor{} }

// Extract builds the RC view of one net.
func Extract(stack *tech.Stack, in NetInput, opt Options) *NetRC {
	return NewExtractor().Extract(stack, in, opt)
}

// Extract builds the RC view of one net, reusing the extractor scratch.
func (x *Extractor) Extract(stack *tech.Stack, in NetInput, opt Options) *NetRC {
	out := &NetRC{}
	x.ExtractInto(out, stack, in, opt)
	return out
}

// ExtractInto builds the RC view of one net into dst, reusing both the
// extractor scratch and dst's Elmore storage when its capacity suffices
// (flow callers pre-carve ElmorePs from one design-wide arena, so filling
// a dense net-Seq-indexed []NetRC allocates nothing per net).
func (x *Extractor) ExtractInto(dst *NetRC, stack *tech.Stack, in NetInput, opt Options) {
	nSinks := len(in.SinkCapFF)
	el := dst.ElmorePs
	if cap(el) < nSinks {
		el = make([]float64, nSinks)
	} else {
		el = el[:nSinks]
	}
	for i := range el {
		el[i] = -1 // not reached by a routed tree yet
	}
	*dst = NetRC{Name: in.Name, ElmorePs: el}

	// Sinks are visited in index order everywhere below: float
	// accumulation into TotalCapFF follows the net's canonical sink order,
	// so identical inputs give bit-identical results.
	for side, t := range [2]*route.Tree{in.Front, in.Back} {
		if t == nil {
			continue
		}
		x.extractSide(stack, t, in, opt, dst, int32(side))
		dst.WirelenNm += t.WirelenNm
	}
	// Sinks with no routed tree (same-gcell or unrouted): local stub only.
	for i, c := range in.SinkCapFF {
		if dst.ElmorePs[i] < 0 {
			dst.ElmorePs[i] = opt.PinStubRKOhm * (c + opt.PinStubCfF)
			dst.TotalCapFF += c + opt.PinStubCfF
			dst.WireCapFF += opt.PinStubCfF
		}
	}
}

// ensure sizes the scratch for an n-node tree.
func (x *Extractor) ensure(n int) {
	if cap(x.childStart) < n+1 {
		x.childStart = make([]int32, n+1)
		x.childList = make([]int32, n)
		x.edgeIdx = make([]int32, n)
		x.nodeCap = make([]float64, n)
		x.down = make([]float64, n)
		x.elmore = make([]float64, n)
		x.order = make([]int32, 0, n)
	}
	x.childStart = x.childStart[:n+1]
	x.childList = x.childList[:n]
	x.edgeIdx = x.edgeIdx[:n]
	x.nodeCap = x.nodeCap[:n]
	x.down = x.down[:n]
	x.elmore = x.elmore[:n]
}

// extractSide runs Elmore analysis over one side's tree and merges the
// results into out. side is the tree's side bit (0 front, 1 back); only
// sinks whose SinkPos carries that bit live in this tree.
func (x *Extractor) extractSide(stack *tech.Stack, t *route.Tree, in NetInput, opt Options, out *NetRC, side int32) {
	n := len(t.Nodes)
	if n == 0 {
		return
	}
	x.ensure(n)
	// Children adjacency (edges are parent->child by construction), as a
	// counting-sorted flat list preserving t.Edges order per parent.
	for i := 0; i <= n; i++ {
		x.childStart[i] = 0
	}
	for i := range x.edgeIdx {
		x.edgeIdx[i] = -1
		x.nodeCap[i] = 0
		x.elmore[i] = 0
	}
	for _, e := range t.Edges {
		x.childStart[e.From+1]++
	}
	for i := 0; i < n; i++ {
		x.childStart[i+1] += x.childStart[i]
	}
	cursor := x.cursor[:0]
	cursor = append(cursor, x.childStart[:n]...)
	x.cursor = cursor
	for ei, e := range t.Edges {
		x.childList[cursor[e.From]] = int32(e.To)
		cursor[e.From]++
		x.edgeIdx[e.To] = int32(ei)
	}

	// Node capacitance: edge wire cap lands at the child node; sink pin
	// caps and stubs land at their pin node.
	for _, e := range t.Edges {
		lenUm := float64(e.LenNm) / 1000.0
		c := e.Layer.CPerUm * lenUm
		if e.Layer.Name == "" {
			c = 0.2 * lenUm
		}
		c += float64(e.Vias) * stack.ViaCfF
		x.nodeCap[e.To] += c
		out.WireCapFF += c
		out.TotalCapFF += c
	}
	for i, sp := range in.SinkPos {
		if sp&1 != side {
			continue // sink lives in the other side's tree
		}
		node := t.PinNode[sp>>1]
		c := in.SinkCapFF[i]
		x.nodeCap[node] += c + opt.PinStubCfF
		out.TotalCapFF += c + opt.PinStubCfF
		out.WireCapFF += opt.PinStubCfF
	}

	// Downstream capacitance (post-order via reverse BFS order). The
	// children graph is a tree rooted at DriverNode, so plain BFS needs no
	// visited set.
	bfs := x.order[:0]
	bfs = append(bfs, int32(t.DriverNode))
	for qh := 0; qh < len(bfs); qh++ {
		u := bfs[qh]
		for _, v := range x.childList[x.childStart[u]:x.childStart[u+1]] {
			bfs = append(bfs, v)
		}
	}
	x.order = bfs
	copy(x.down, x.nodeCap)
	for i := len(bfs) - 1; i >= 0; i-- {
		u := bfs[i]
		for _, v := range x.childList[x.childStart[u]:x.childStart[u+1]] {
			x.down[u] += x.down[v]
		}
	}

	// Edge resistance includes the wire run plus via hops; the driver's
	// escape (M0 up to the first routing layer + Drain Merge when the net
	// reaches the backside) is a series resistance at the root.
	rootR := opt.PinStubRKOhm * (1 + opt.EscapeK*t.EscapeCrowding*t.EscapeCrowding)
	if in.Back != nil && in.Front != nil {
		rootR += opt.DrainMergeRKOhm
	}
	if len(t.Edges) > 0 {
		first := t.Edges[0]
		if first.Layer.Name != "" {
			rootR += stack.ViaStackR(0, first.Layer.Index)
		}
	}

	x.elmore[t.DriverNode] = rootR * x.down[t.DriverNode]
	for _, u := range bfs {
		for _, v := range x.childList[x.childStart[u]:x.childStart[u+1]] {
			e := t.Edges[x.edgeIdx[v]]
			lenUm := float64(e.LenNm) / 1000.0
			r := 0.3 * lenUm
			if e.Layer.Name != "" {
				r = e.Layer.RPerUm * lenUm
			}
			r += float64(e.Vias) * stack.ViaRKOhm
			x.elmore[v] = x.elmore[u] + r*x.down[v]
		}
	}

	for i, sp := range in.SinkPos {
		if sp&1 != side {
			continue
		}
		node := t.PinNode[sp>>1]
		c := in.SinkCapFF[i]
		// Sink escape: via stack back down to the pin.
		descend := 0.0
		if ei := x.edgeIdx[node]; ei >= 0 && t.Edges[ei].Layer.Name != "" {
			descend = stack.ViaStackR(t.Edges[ei].Layer.Index, 0)
		}
		d := x.elmore[node] + (opt.PinStubRKOhm+descend)*(c+opt.PinStubCfF)
		if d > out.ElmorePs[i] {
			out.ElmorePs[i] = d
		}
	}
}

// SlewDegrade approximates output-transition degradation along a wire with
// the given Elmore delay (Bakoglu-style RMS blend).
func SlewDegrade(slewPs, elmorePs float64) float64 {
	return math.Sqrt(slewPs*slewPs + (2.2*elmorePs)*(2.2*elmorePs))
}
