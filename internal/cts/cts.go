// Package cts implements clock tree synthesis: recursive geometric
// bisection of the flop population into a balanced buffer tree, clock
// buffer insertion into the netlist, and per-flop insertion-delay / skew
// estimation consumed by timing analysis. The stage mirrors the paper's
// conventional CTS step ("the CTS stage is performed, which is the same as
// the conventional flow", Section III.C).
package cts

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// Options configures tree construction.
type Options struct {
	// MaxLeafFanout is the most CP pins a leaf buffer may drive.
	MaxLeafFanout int
	// BufferDrive selects the clock buffer strength.
	BufferDrive int
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options { return Options{MaxLeafFanout: 24, BufferDrive: 4} }

// Result describes the synthesized tree.
type Result struct {
	Buffers int
	Depth   int
	// ArrivalPs is the clock insertion delay (ps) per instance, indexed
	// by Instance.Seq over the post-CTS netlist (buffers included). Only
	// flop entries are meaningful; everything else stays 0. The dense
	// layout is what STA consumes directly — no name lookups on the
	// timing hot path.
	ArrivalPs []float64
	// Sinks is the number of clock sinks (flop CP pins) driven by the tree.
	Sinks  int
	SkewPs float64
	// MeanInsertionPs is the average insertion delay.
	MeanInsertionPs float64
}

// Run builds the clock tree in place: the clock net keeps driving the root
// buffer only; flop CP pins are reconnected to leaf buffer nets. Buffers
// are positioned at cluster centroids (legalize afterwards).
func Run(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) (*Result, error) {
	if opt.MaxLeafFanout < 1 {
		return nil, fmt.Errorf("cts: leaf fanout %d must be positive", opt.MaxLeafFanout)
	}
	clk := nl.ClockNet()
	if clk == nil {
		return nil, fmt.Errorf("cts: no clock net marked")
	}
	// Collect clock sinks (flop CP pins).
	var sinks []netlist.PinRef
	for _, s := range clk.Sinks {
		if !s.IsPort() && s.Inst.Cell.IsSeq() {
			sinks = append(sinks, s)
		}
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("cts: clock net has no flop sinks")
	}
	slices.SortFunc(sinks, func(a, b netlist.PinRef) int { return strings.Compare(a.Inst.Name, b.Inst.Name) })
	// Strip every collected sink from the clock net in one
	// order-preserving pass. The tree build reattaches each to its leaf
	// net via Reconnect, which then finds nothing left to remove on the
	// clock net — one linear pass instead of a quadratic
	// remove-one-at-a-time over a root net with thousands of sinks.
	keep := clk.Sinks[:0]
	for _, s := range clk.Sinks {
		if s.IsPort() || !s.Inst.Cell.IsSeq() {
			keep = append(keep, s)
		}
	}
	clk.Sinks = keep

	t := &treeBuilder{nl: nl, fp: fp, opt: opt}
	rootNode, err := t.build(sinks, 0)
	if err != nil {
		return nil, err
	}
	// Root buffer input connects to the original clock net.
	if err := nl.Reconnect(rootNode.buf, "I", clk); err != nil {
		return nil, err
	}

	res := &Result{
		Buffers:   t.count,
		Depth:     t.depth,
		Sinks:     len(sinks),
		ArrivalPs: make([]float64, len(nl.Instances)),
	}
	t.minArr, t.maxArr = math.Inf(1), math.Inf(-1)
	t.computeArrivals(rootNode, 0, res)
	res.SkewPs = t.maxArr - t.minArr
	res.MeanInsertionPs = t.sumArr / float64(len(sinks))
	return res, nil
}

type node struct {
	buf      *netlist.Instance
	out      *netlist.Net
	children []*node
	leaves   []netlist.PinRef // flop CPs (leaf nodes only)
	pos      geom.Point
}

type treeBuilder struct {
	nl    *netlist.Netlist
	fp    *floorplan.Plan
	opt   Options
	count int
	depth int
	// Leaf arrival statistics, accumulated in deterministic tree-walk
	// order by computeArrivals.
	minArr, maxArr, sumArr float64
}

// build recursively constructs the tree over the sink set and returns the
// subtree root (a buffer). The buffer's input pin is left unconnected for
// the parent to wire.
func (t *treeBuilder) build(sinks []netlist.PinRef, depth int) (*node, error) {
	if depth > t.depth {
		t.depth = depth
	}
	c := centroid(sinks, t.fp)
	bufCell := t.nl.Lib.PickDrive("BUF", t.opt.BufferDrive)
	name := fmt.Sprintf("ctsbuf_%d", t.count)
	t.count++
	outName := name + "_z"
	buf, err := t.nl.AddInstance(name, bufCell, map[string]string{"Z": outName})
	if err != nil {
		return nil, err
	}
	buf.Pos = c
	out := t.nl.Net(outName)
	n := &node{buf: buf, out: out, pos: c}

	if len(sinks) <= t.opt.MaxLeafFanout {
		for _, s := range sinks {
			if err := t.nl.Reconnect(s.Inst, s.Pin, out); err != nil {
				return nil, err
			}
		}
		n.leaves = sinks
		return n, nil
	}
	// Split along the longer bounding-box dimension at the median.
	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.Inst.Pos
	}
	bb := geom.BBox(pts)
	byX := bb.W() >= bb.H()
	order := append([]netlist.PinRef(nil), sinks...)
	slices.SortStableFunc(order, func(x, y netlist.PinRef) int {
		a, b := x.Inst.Pos, y.Inst.Pos
		if byX {
			if a.X != b.X {
				return cmp.Compare(a.X, b.X)
			}
		} else {
			if a.Y != b.Y {
				return cmp.Compare(a.Y, b.Y)
			}
		}
		return strings.Compare(x.Inst.Name, y.Inst.Name)
	})
	mid := len(order) / 2
	left, err := t.build(order[:mid], depth+1)
	if err != nil {
		return nil, err
	}
	right, err := t.build(order[mid:], depth+1)
	if err != nil {
		return nil, err
	}
	for _, child := range []*node{left, right} {
		if err := t.nl.Reconnect(child.buf, "I", out); err != nil {
			return nil, err
		}
	}
	n.children = []*node{left, right}
	return n, nil
}

func centroid(sinks []netlist.PinRef, fp *floorplan.Plan) geom.Point {
	var sx, sy int64
	for _, s := range sinks {
		sx += s.Inst.Pos.X
		sy += s.Inst.Pos.Y
	}
	n := int64(len(sinks))
	return geom.Pt(sx/n, sy/n)
}

// Electrical estimates for arrival computation.
const (
	clockWireRPerUm = 0.09 // kΩ/µm (FM5-class trunk layer)
	clockWireCPerUm = 0.22 // fF/µm
	flopCPCapFF     = 0.30
)

// computeArrivals walks the tree accumulating buffer + wire delay.
func (t *treeBuilder) computeArrivals(n *node, acc float64, res *Result) {
	// Buffer stage delay under its actual fan-out load.
	load := 0.0
	maxDist := 0.0
	if len(n.children) > 0 {
		for _, ch := range n.children {
			load += ch.buf.Cell.InputCap("I")
			d := float64(n.pos.ManhattanDist(ch.pos)) / 1000.0
			if d > maxDist {
				maxDist = d
			}
		}
	} else {
		for _, leaf := range n.leaves {
			load += flopCPCapFF
			d := float64(n.pos.ManhattanDist(leaf.Inst.Pos)) / 1000.0
			if d > maxDist {
				maxDist = d
			}
		}
	}
	wireCap := clockWireCPerUm * maxDist
	arc := n.buf.Cell.Arc("I")
	stage := arc.DelayRise.Lookup(15, load+wireCap)
	// Distributed-RC wire term to the farthest child.
	wire := 0.5 * clockWireRPerUm * clockWireCPerUm * maxDist * maxDist
	total := acc + stage + wire
	if len(n.children) == 0 {
		for _, leaf := range n.leaves {
			res.ArrivalPs[leaf.Inst.Seq] = total
			t.minArr = math.Min(t.minArr, total)
			t.maxArr = math.Max(t.maxArr, total)
			t.sumArr += total
		}
		return
	}
	for _, ch := range n.children {
		t.computeArrivals(ch, total, res)
	}
}
