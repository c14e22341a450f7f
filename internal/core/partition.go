// Package core implements the paper's primary contribution: the FFET
// dual-sided physical implementation and block-level PPA evaluation
// framework — input-pin redistribution, the Algorithm 1 netlist partition
// into frontside and backside nets, independent per-side routing, DEF
// merging, dual-sided RC extraction, and the end-to-end flow of Fig. 7.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lef"
	"repro/internal/netlist"
	"repro/internal/route"
	"repro/internal/tech"
)

// PinAssignment is the input-pin redistribution: cell master + pin name ->
// wafer side. It corresponds to the paper's "modified standard cell LEF
// files" — every instance of a master uses the same pin side.
type PinAssignment struct {
	// BackFraction is the requested backside input-pin density ratio
	// (e.g. 0.5 for FP0.5BP0.5).
	BackFraction float64
	Seed         int64
	sides        map[string]tech.Side // "CELL/PIN" -> side
}

// AssignPins builds a deterministic redistribution over a library: a
// BackFraction share of input pins is assigned to the backside. When a
// netlist is given, (cell, pin) pairs are weighted by how many instances
// of the cell the design actually uses, so the realized pin-density ratio
// over the placed design matches the request (the paper's FPxBPy knobs).
// CFET libraries only admit fraction 0.
func AssignPins(lib *cell.Library, backFraction float64, seed int64, weightBy ...*netlist.Netlist) (*PinAssignment, error) {
	if backFraction < 0 || backFraction > 1 {
		return nil, fmt.Errorf("core: back fraction %.2f out of [0,1]", backFraction)
	}
	if lib.Arch == tech.CFET && backFraction > 0 {
		return nil, fmt.Errorf("core: CFET pins cannot move to the backside")
	}
	pa := &PinAssignment{
		BackFraction: backFraction,
		Seed:         seed,
		sides:        make(map[string]tech.Side),
	}
	weights := make(map[string]float64)
	if len(weightBy) > 0 && weightBy[0] != nil {
		for _, inst := range weightBy[0].Instances {
			weights[inst.Cell.Name] += 1
		}
	}
	// Collect all (cell, pin) input pairs in hashed order, then greedily
	// fill the backside until its weighted share reaches the request.
	type cp struct {
		key    string
		rank   uint64
		weight float64
	}
	var pairs []cp
	var total float64
	for _, c := range lib.Cells() {
		w := weights[c.Name]
		if w == 0 {
			w = 1
		}
		for _, p := range c.Inputs {
			key := c.Name + "/" + p.Name
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%d", key, seed)
			pairs = append(pairs, cp{key: key, rank: h.Sum64(), weight: w})
			total += w
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].rank != pairs[j].rank {
			return pairs[i].rank < pairs[j].rank
		}
		return pairs[i].key < pairs[j].key
	})
	var backW float64
	for _, p := range pairs {
		if backW+p.weight/2 <= backFraction*total {
			pa.sides[p.key] = tech.Back
			backW += p.weight
		} else {
			pa.sides[p.key] = tech.Front
		}
	}
	return pa, nil
}

// Side returns the assigned side of a cell input pin.
func (pa *PinAssignment) Side(cellName, pin string) tech.Side {
	if s, ok := pa.sides[cellName+"/"+pin]; ok {
		return s
	}
	return tech.Front
}

// BackShare reports the realized backside share.
func (pa *PinAssignment) BackShare() float64 {
	if len(pa.sides) == 0 {
		return 0
	}
	n := 0
	for _, s := range pa.sides {
		if s == tech.Back {
			n++
		}
	}
	return float64(n) / float64(len(pa.sides))
}

// LEFSideConfig renders the assignment as the modified-LEF side config.
func (pa *PinAssignment) LEFSideConfig() lef.SideConfig {
	sc := lef.SideConfig{}
	for key, s := range pa.sides {
		var cellName, pin string
		for i := len(key) - 1; i >= 0; i-- {
			if key[i] == '/' {
				cellName, pin = key[:i], key[i+1:]
				break
			}
		}
		side := lef.SideFront
		if s == tech.Back {
			side = lef.SideBack
		}
		sc.Set(cellName, pin, side)
	}
	return sc
}

// SideNets is the output of the Algorithm 1 partition: routing tasks per
// wafer side, plus the dense per-net sink tables extraction consumes.
// All per-net tables are parallel slices over net seq's sinks in
// canonical netlist order, carved from flat arenas sized up front, so
// the whole partition's extraction view costs a handful of allocations
// regardless of design size.
type SideNets struct {
	Front []*route.Net
	Back  []*route.Net
	// SinkIDs[seq][i] is the packed identity of sink i — the same ID
	// carried by the sink's route.Pin (names are rendered from PinIDs
	// only at the DEF serialization boundary, via Tree.Pins).
	SinkIDs [][]netlist.PinID
	// SinkCapFF[seq][i] is the input capacitance of sink i.
	SinkCapFF [][]float64
	// SinkPos[seq][i] locates sink i in its routed side sub-net, packed
	// as (index into the side net's Pins << 1) | side bit (0 front,
	// 1 back). Extraction uses it to find the sink's tree node without
	// any name-keyed lookup.
	SinkPos [][]int32
	// Rerouted counts sinks that required the (optional) bridging-cell
	// path: sinks whose assigned side has no routing layers in the
	// pattern. They are rerouted on the available side instead.
	Rerouted int
}

// Partition implements Algorithm 1: decompose every net into a frontside
// net and a backside net according to the redistributed input-pin sides.
// The driver output pin is dual-sided in FFET (Drain Merge), so each
// sub-net is rooted at the driver on its own side; no bridging cells are
// needed. Sinks assigned to a side with no routing resources in the
// pattern fall back to the other side (the flow "also supports bridging
// cells" — modeled as a reroute, counted in Rerouted).
func Partition(nl *netlist.Netlist, pa *PinAssignment, pattern tech.Pattern, pinAt func(ref netlist.PinRef) geom.Point) (*SideNets, error) {
	totalSinks := 0
	for _, n := range nl.Nets {
		totalSinks += len(n.Sinks)
	}
	// Per-net sink tables are carved out of flat arenas, indexed by net
	// Seq. The arenas are sized exactly, so the appends below never
	// reallocate and the subslices stay valid. The route.Pin and
	// route.Net payloads are arena-backed too: pin slices need at most
	// totalSinks + 2 driver slots per net (the dual-sided driver roots a
	// sub-net on each side), and at most two sub-nets exist per net.
	idArena := make([]netlist.PinID, 0, totalSinks)
	capArena := make([]float64, 0, totalSinks)
	posArena := make([]int32, 0, totalSinks)
	pinArena := make([]route.Pin, 0, totalSinks+2*len(nl.Nets))
	netArena := make([]route.Net, 0, 2*len(nl.Nets))
	out := &SideNets{
		SinkIDs:   make([][]netlist.PinID, len(nl.Nets)),
		SinkCapFF: make([][]float64, len(nl.Nets)),
		SinkPos:   make([][]int32, len(nl.Nets)),
	}
	frontOK := pattern.Front > 0
	backOK := pattern.Back > 0
	if !frontOK && !backOK {
		return nil, fmt.Errorf("core: pattern %v has no routing side", pattern)
	}
	// sideOf is reused across nets to remember each sink's resolved side,
	// so the per-side pin slices can be carved at exact size in one shot.
	var sideOf []tech.Side
	for _, n := range nl.Nets {
		if n.Driver == (netlist.PinRef{}) {
			return nil, fmt.Errorf("core: net %s undriven", n.Name)
		}
		sinkStart := len(idArena)

		sideOf = sideOf[:0]
		nFront, nBack := 0, 0
		for _, s := range n.Sinks {
			capFF := 1.0 // external load for port sinks
			side := tech.Front
			if !s.IsPort() {
				capFF = s.Inst.Cell.InputCap(s.Pin)
				side = pa.Side(s.Inst.Cell.Name, s.Pin)
			}
			idArena = append(idArena, s.ID())
			capArena = append(capArena, capFF)
			// Fall back when the assigned side has no layers.
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
		out.SinkIDs[n.Seq] = idArena[sinkStart:len(idArena):len(idArena)]
		out.SinkCapFF[n.Seq] = capArena[sinkStart:len(capArena):len(capArena)]
		drv := route.Pin{ID: n.Driver.ID(), At: pinAt(n.Driver), Driver: true}
		// The dual-sided output pin roots a sub-net on each side that has
		// sinks ("each output signal can be placed on the frontside, the
		// backside, or both").
		var frontPins, backPins []route.Pin
		base := len(pinArena)
		fLen, bLen := 0, 0
		if nFront > 0 {
			fLen = nFront + 1
		}
		if nBack > 0 {
			bLen = nBack + 1
		}
		pinArena = pinArena[:base+fLen+bLen]
		if fLen > 0 {
			frontPins = append(pinArena[base:base:base+fLen], drv)
		}
		if bLen > 0 {
			backPins = append(pinArena[base+fLen:base+fLen:base+fLen+bLen], drv)
		}
		posStart := len(posArena)
		for i, s := range n.Sinks {
			p := route.Pin{ID: out.SinkIDs[n.Seq][i], At: pinAt(s), CapFF: out.SinkCapFF[n.Seq][i]}
			if sideOf[i] == tech.Back {
				posArena = append(posArena, int32(len(backPins))<<1|1)
				backPins = append(backPins, p)
			} else {
				posArena = append(posArena, int32(len(frontPins))<<1)
				frontPins = append(frontPins, p)
			}
		}
		out.SinkPos[n.Seq] = posArena[posStart:len(posArena):len(posArena)]
		if nFront > 0 {
			netArena = append(netArena, route.Net{Name: n.Name, Seq: n.Seq, Pins: frontPins})
			out.Front = append(out.Front, &netArena[len(netArena)-1])
		}
		if nBack > 0 {
			netArena = append(netArena, route.Net{Name: n.Name, Seq: n.Seq, Pins: backPins})
			out.Back = append(out.Back, &netArena[len(netArena)-1])
		}
	}
	return out, nil
}

// PartitionStats summarizes a partition for reporting.
type PartitionStats struct {
	FrontNets, BackNets int
	FrontPins, BackPins int
}

// Stats computes per-side net/pin counts.
func (s *SideNets) Stats() PartitionStats {
	st := PartitionStats{FrontNets: len(s.Front), BackNets: len(s.Back)}
	for _, n := range s.Front {
		st.FrontPins += len(n.Pins)
	}
	for _, n := range s.Back {
		st.BackPins += len(n.Pins)
	}
	return st
}
