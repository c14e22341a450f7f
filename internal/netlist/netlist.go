// Package netlist models gate-level netlists: standard-cell instances,
// nets with a single driver and multiple sinks, and top-level ports. It is
// the common currency between synthesis, placement, routing, timing and
// power analysis, and can be serialized to/from structural Verilog.
package netlist

import (
	"fmt"
	"slices"

	"repro/internal/cell"
	"repro/internal/geom"
)

// PortDir is the direction of a top-level port.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
)

// Port is a top-level interface pin of the block.
type Port struct {
	Name string
	Dir  PortDir
	Net  *Net
	// Seq is the port's position in Netlist.Ports, assigned at AddPort
	// time; PinID packs it as the dense port identity.
	Seq int
	// Pos is the port's placed location on the core boundary (filled by
	// floorplanning/IO placement).
	Pos geom.Point
}

// PinRef identifies one endpoint of a net: either an instance pin or a
// top-level port.
type PinRef struct {
	Inst *Instance // nil when the endpoint is a port
	Pin  string    // pin name on the instance ("" for ports)
	Port *Port     // nil when the endpoint is an instance pin
}

// IsPort reports whether the endpoint is a top-level port.
func (p PinRef) IsPort() bool { return p.Port != nil }

// String renders the endpoint as inst/pin or port name.
func (p PinRef) String() string {
	if p.IsPort() {
		return p.Port.Name
	}
	return p.Inst.Name + "/" + p.Pin
}

// Net is a signal net: exactly one driver, zero or more sinks.
type Net struct {
	Name   string
	Driver PinRef
	Sinks  []PinRef
	// Seq is the net's position in Netlist.Nets, assigned at EnsureNet
	// time and never changed. Like Instance.Seq it is the dense id the
	// flow stages (extraction, STA, CTS, power) use to keep per-net state
	// in flat slices instead of name- or pointer-keyed maps, and the
	// index Snapshot resolves each copied net by.
	Seq     int
	IsClock bool
}

// Fanout returns the number of sinks.
func (n *Net) Fanout() int { return len(n.Sinks) }

// Instance is a placed (or yet-unplaced) standard-cell instance.
type Instance struct {
	Name string
	Cell *cell.Cell
	// Seq is the instance's position in Netlist.Instances, assigned at
	// AddInstance time. Hot loops (placement attraction, refinement) use
	// it to keep per-instance state in flat slices instead of
	// pointer-keyed maps.
	Seq int
	// conns holds the net on each pin, indexed by the cell's canonical
	// pin index (inputs in order, then the output; cell.Cell.PinIndex).
	// nil entries are unconnected pins.
	conns []*Net

	// Physical state, managed by floorplan/placement.
	Pos   geom.Point // lower-left corner
	Fixed bool       // true for power tap cells and other pre-placed cells
}

// Conn returns the net bound to the named pin (nil if unconnected).
func (i *Instance) Conn(pin string) *Net {
	idx := i.Cell.PinIndex(pin)
	if idx < 0 {
		return nil
	}
	return i.conns[idx]
}

// ConnAt returns the net bound to the canonical pin index.
func (i *Instance) ConnAt(idx int) *Net { return i.conns[idx] }

// PinNames returns the instance pin names in canonical cell order
// (inputs first, then the output).
func (i *Instance) PinNames() []string {
	var out []string
	for _, p := range i.Cell.Inputs {
		out = append(out, p.Name)
	}
	out = append(out, i.Cell.Out.Name)
	return out
}

// InputNets returns the nets on the instance's input pins, canonical order.
func (i *Instance) InputNets() []*Net {
	out := make([]*Net, len(i.Cell.Inputs))
	copy(out, i.conns)
	return out
}

// OutputNet returns the net driven by the instance (nil if unconnected).
func (i *Instance) OutputNet() *Net { return i.conns[len(i.Cell.Inputs)] }

// Center returns the instance center point given its library stack height.
func (i *Instance) Center() geom.Point {
	// Width is resolved lazily by callers holding the stack; the X center
	// uses the cell's CPP width at 50nm/CPP which is constant across archs.
	return i.Pos
}

// Netlist is a flat gate-level design.
type Netlist struct {
	Name string
	Lib  *cell.Library

	Instances []*Instance
	Nets      []*Net
	Ports     []*Port

	instByName map[string]*Instance
	netByName  map[string]*Net
	portByName map[string]*Port
}

// New creates an empty netlist bound to a library.
func New(name string, lib *cell.Library) *Netlist {
	return &Netlist{
		Name:       name,
		Lib:        lib,
		instByName: make(map[string]*Instance),
		netByName:  make(map[string]*Net),
		portByName: make(map[string]*Port),
	}
}

// AddPort declares a top-level port and its bound net (created if needed).
func (nl *Netlist) AddPort(name string, dir PortDir) *Port {
	if p, ok := nl.portByName[name]; ok {
		return p
	}
	p := &Port{Name: name, Dir: dir, Seq: len(nl.Ports)}
	n := nl.EnsureNet(name)
	p.Net = n
	if dir == In {
		n.Driver = PinRef{Port: p}
	} else {
		n.Sinks = append(n.Sinks, PinRef{Port: p})
	}
	nl.Ports = append(nl.Ports, p)
	nl.portByName[name] = p
	return p
}

// Port returns the named port, or nil.
func (nl *Netlist) Port(name string) *Port { return nl.portByName[name] }

// EnsureNet returns the named net, creating it if absent.
func (nl *Netlist) EnsureNet(name string) *Net {
	if n, ok := nl.netByName[name]; ok {
		return n
	}
	n := &Net{Name: name, Seq: len(nl.Nets)}
	nl.Nets = append(nl.Nets, n)
	nl.netByName[name] = n
	return n
}

// Net returns the named net, or nil.
func (nl *Netlist) Net(name string) *Net { return nl.netByName[name] }

// Instance returns the named instance, or nil.
func (nl *Netlist) Instance(name string) *Instance { return nl.instByName[name] }

// AddInstance creates an instance of c with pin connections given as
// pin name -> net name. Nets are created on demand. The output pin
// connection establishes the net driver.
func (nl *Netlist) AddInstance(name string, c *cell.Cell, conns map[string]string) (*Instance, error) {
	if _, dup := nl.instByName[name]; dup {
		return nil, fmt.Errorf("netlist: duplicate instance %q", name)
	}
	// Validate every connection name before touching any net: an invalid
	// name must not leave ghost sinks or a ghost driver behind.
	matched := 0
	for _, pi := range c.PinOrderByName() {
		if _, ok := conns[c.PinName(pi)]; ok {
			matched++
		}
	}
	if matched != len(conns) {
		// Some connection names no cell pin: report the first in sorted
		// order, matching the pre-interning error.
		var bad []string
		for pin := range conns {
			if c.PinIndex(pin) < 0 {
				bad = append(bad, pin)
			}
		}
		slices.Sort(bad)
		return nil, fmt.Errorf("netlist: %s has no pin %q", c.Name, bad[0])
	}
	inst := &Instance{Name: name, Cell: c, Seq: len(nl.Instances), conns: make([]*Net, c.NumPins())}
	// Process pins in sorted-name order, not map order: net creation order
	// and per-net sink order must not depend on Go's randomized map
	// iteration, or the whole flow downstream (placement, routing
	// tie-breaks, PPA) becomes nondeterministic run to run. The sorted
	// order is interned once per cell (cell.PinOrderByName), so no
	// per-instance sort or scratch buffer is needed.
	outIdx := c.OutIndex()
	for _, pi := range c.PinOrderByName() {
		pin := c.PinName(pi)
		netName, ok := conns[pin]
		if !ok {
			continue
		}
		n := nl.EnsureNet(netName)
		inst.conns[pi] = n
		ref := PinRef{Inst: inst, Pin: pin}
		if pi == outIdx {
			if n.Driver != (PinRef{}) {
				return nil, fmt.Errorf("netlist: net %q already driven by %s", netName, n.Driver)
			}
			n.Driver = ref
		} else {
			n.Sinks = append(n.Sinks, ref)
		}
	}
	nl.Instances = append(nl.Instances, inst)
	nl.instByName[name] = inst
	return inst, nil
}

// MustAdd is AddInstance that panics on error; for generator code building
// netlists from trusted templates.
func (nl *Netlist) MustAdd(name string, c *cell.Cell, conns map[string]string) *Instance {
	inst, err := nl.AddInstance(name, c, conns)
	if err != nil {
		panic(err)
	}
	return inst
}

// MarkClock flags the named net (and its name) as the clock.
func (nl *Netlist) MarkClock(netName string) {
	if n := nl.netByName[netName]; n != nil {
		n.IsClock = true
	}
}

// ClockNet returns the first net marked as clock, or nil.
func (nl *Netlist) ClockNet() *Net {
	for _, n := range nl.Nets {
		if n.IsClock {
			return n
		}
	}
	return nil
}

// Flops returns all sequential instances in deterministic order.
func (nl *Netlist) Flops() []*Instance {
	var out []*Instance
	for _, i := range nl.Instances {
		if i.Cell.IsSeq() {
			out = append(out, i)
		}
	}
	return out
}

// CellAreaNm2 sums the footprint area of all instances.
func (nl *Netlist) CellAreaNm2() int64 {
	var sum int64
	for _, i := range nl.Instances {
		sum += i.Cell.AreaNm2(nl.Lib.Stack)
	}
	return sum
}

// CellAreaUm2 is CellAreaNm2 in µm².
func (nl *Netlist) CellAreaUm2() float64 { return float64(nl.CellAreaNm2()) / 1e6 }

// Stats summarizes a netlist.
type Stats struct {
	Instances int
	Nets      int
	Ports     int
	Flops     int
	AreaUm2   float64
	ByBase    map[string]int
}

// Stats computes summary statistics.
func (nl *Netlist) Stats() Stats {
	s := Stats{
		Instances: len(nl.Instances),
		Nets:      len(nl.Nets),
		Ports:     len(nl.Ports),
		AreaUm2:   nl.CellAreaUm2(),
		ByBase:    make(map[string]int),
	}
	for _, i := range nl.Instances {
		s.ByBase[i.Cell.Base]++
		if i.Cell.IsSeq() {
			s.Flops++
		}
	}
	return s
}

// Validate checks structural invariants: every net has a driver, every
// sink refers to an existing pin, no instance input is dangling, and pin
// connection tables are consistent with net endpoint lists.
func (nl *Netlist) Validate() error {
	for _, n := range nl.Nets {
		if n.Driver == (PinRef{}) {
			return fmt.Errorf("netlist: net %q has no driver", n.Name)
		}
		if !n.Driver.IsPort() {
			if n.Driver.Inst.Conn(n.Driver.Pin) != n {
				return fmt.Errorf("netlist: net %q driver back-reference broken", n.Name)
			}
		}
		for _, s := range n.Sinks {
			if s.IsPort() {
				continue
			}
			if s.Inst.Conn(s.Pin) != n {
				return fmt.Errorf("netlist: net %q sink %s back-reference broken", n.Name, s)
			}
		}
	}
	for _, i := range nl.Instances {
		for pi, p := range i.Cell.Inputs {
			if i.conns[pi] == nil {
				return fmt.Errorf("netlist: %s input %s dangling", i.Name, p.Name)
			}
		}
		if i.OutputNet() == nil {
			return fmt.Errorf("netlist: %s output dangling", i.Name)
		}
	}
	return nil
}

// Remap returns a copy of the netlist bound to another library: a
// Snapshot whose instances use lib's same-named cells, so nets, sink
// order, Seq ids and physical state carry over unchanged. Same-named
// cells of the FFET and CFET libraries list the same pins in the same
// order, which keeps every connection table valid and enables the
// paper's like-for-like block comparison. A cell lib lacks is refused.
func (nl *Netlist) Remap(lib *cell.Library) (*Netlist, error) {
	out := nl.Snapshot()
	out.Lib = lib
	for _, inst := range out.Instances {
		c := lib.Cell(inst.Cell.Name)
		if c == nil {
			return nil, fmt.Errorf("netlist: target library lacks %s", inst.Cell.Name)
		}
		inst.Cell = c
	}
	return out, nil
}

// Snapshot returns an exact deep copy of the netlist: every instance,
// net and port is duplicated at the same Seq and slice position with its
// physical state (Pos, Fixed, port positions), connection tables and
// sink order preserved bit-for-bit. Mutating either copy never affects
// the other, and Snapshot only reads its source, so any number of
// goroutines may copy one netlist at once. It is the netlist's one deep
// copy: synthesis copies its input with it, Remap rebinds one to another
// library, and the staged flow (core.Flow) copies the shared synthesis
// netlist with it before placement first mutates a session's netlist.
func (nl *Netlist) Snapshot() *Netlist {
	out := &Netlist{
		Name:       nl.Name,
		Lib:        nl.Lib,
		Instances:  make([]*Instance, len(nl.Instances)),
		Nets:       make([]*Net, len(nl.Nets)),
		Ports:      make([]*Port, len(nl.Ports)),
		instByName: make(map[string]*Instance, len(nl.Instances)),
		netByName:  make(map[string]*Net, len(nl.Nets)),
		portByName: make(map[string]*Port, len(nl.Ports)),
	}
	// Seq doubles as the slice index for nets, instances and ports, so
	// cross references resolve through out's own slices — no pointer
	// remap tables. Structs and per-object tables come out of bulk
	// arenas (full slice expressions below keep later appends from
	// clobbering arena neighbors); a fork-heavy sweep snapshots per
	// point, and the arena layout cuts both the allocation count and
	// the GC scan surface of every retained checkpoint.
	netArena := make([]Net, len(nl.Nets))
	for i, n := range nl.Nets {
		nn := &netArena[i]
		*nn = Net{Name: n.Name, Seq: n.Seq, IsClock: n.IsClock}
		out.Nets[i] = nn
		out.netByName[n.Name] = nn
	}
	nConns := 0
	for _, inst := range nl.Instances {
		nConns += len(inst.conns)
	}
	instArena := make([]Instance, len(nl.Instances))
	connArena := make([]*Net, nConns)
	for i, inst := range nl.Instances {
		ni := &instArena[i]
		conns := connArena[:len(inst.conns):len(inst.conns)]
		connArena = connArena[len(inst.conns):]
		*ni = Instance{
			Name:  inst.Name,
			Cell:  inst.Cell,
			Seq:   inst.Seq,
			Pos:   inst.Pos,
			Fixed: inst.Fixed,
			conns: conns,
		}
		for j, c := range inst.conns {
			if c != nil {
				conns[j] = out.Nets[c.Seq]
			}
		}
		out.Instances[i] = ni
		out.instByName[inst.Name] = ni
	}
	portArena := make([]Port, len(nl.Ports))
	for i, p := range nl.Ports {
		np := &portArena[i]
		*np = Port{Name: p.Name, Dir: p.Dir, Seq: p.Seq, Pos: p.Pos}
		if p.Net != nil {
			np.Net = out.Nets[p.Net.Seq]
		}
		out.Ports[i] = np
		out.portByName[p.Name] = np
	}
	ref := func(r PinRef) PinRef {
		nr := PinRef{Pin: r.Pin}
		if r.Inst != nil {
			nr.Inst = out.Instances[r.Inst.Seq]
		}
		if r.Port != nil {
			nr.Port = out.Ports[r.Port.Seq]
		}
		return nr
	}
	nSinks := 0
	for _, n := range nl.Nets {
		nSinks += len(n.Sinks)
	}
	sinkArena := make([]PinRef, nSinks)
	for i, n := range nl.Nets {
		nn := out.Nets[i]
		nn.Driver = ref(n.Driver)
		if n.Sinks != nil {
			sinks := sinkArena[:len(n.Sinks):len(n.Sinks)]
			sinkArena = sinkArena[len(n.Sinks):]
			for j, s := range n.Sinks {
				sinks[j] = ref(s)
			}
			nn.Sinks = sinks
		}
	}
	return out
}

// TopoLevels returns instances in topological order of the combinational
// graph (flip-flop outputs and ports are level-0 sources; flip-flop data
// inputs are sinks). The second return lists any instances caught in
// combinational cycles (empty for well-formed designs).
func (nl *Netlist) TopoLevels() ([][]*Instance, []*Instance) {
	indeg := make([]int, len(nl.Instances))
	comb := 0
	for _, i := range nl.Instances {
		if i.Cell.IsSeq() {
			continue // flops break the graph
		}
		comb++
		deg := 0
		for pi := range i.Cell.Inputs {
			n := i.conns[pi]
			if n == nil || n.Driver.IsPort() {
				continue
			}
			if d := n.Driver.Inst; d != nil && !d.Cell.IsSeq() {
				deg++
			}
		}
		indeg[i.Seq] = deg
	}
	var levels [][]*Instance
	frontier := make([]*Instance, 0)
	for _, i := range nl.Instances { // deterministic order
		if !i.Cell.IsSeq() && indeg[i.Seq] == 0 {
			frontier = append(frontier, i)
		}
	}
	seen := 0
	for len(frontier) > 0 {
		levels = append(levels, frontier)
		seen += len(frontier)
		var next []*Instance
		for _, i := range frontier {
			out := i.OutputNet()
			if out == nil {
				continue
			}
			for _, s := range out.Sinks {
				if s.IsPort() || s.Inst.Cell.IsSeq() {
					continue
				}
				indeg[s.Inst.Seq]--
				if indeg[s.Inst.Seq] == 0 {
					next = append(next, s.Inst)
				}
			}
		}
		frontier = next
	}
	var cyclic []*Instance
	if seen < comb {
		for _, i := range nl.Instances {
			if !i.Cell.IsSeq() && indeg[i.Seq] > 0 {
				cyclic = append(cyclic, i)
			}
		}
	}
	return levels, cyclic
}

// Reconnect moves an instance input pin from its current net to another
// net, updating both sink lists. Used by buffering and clock tree
// construction.
func (nl *Netlist) Reconnect(inst *Instance, pin string, to *Net) error {
	idx := inst.Cell.PinIndex(pin)
	if idx < 0 || idx == inst.Cell.OutIndex() {
		return fmt.Errorf("netlist: %s has no input pin %q", inst.Cell.Name, pin)
	}
	from := inst.conns[idx]
	if from == to {
		return nil
	}
	if from != nil {
		for i, s := range from.Sinks {
			if s.Inst == inst && s.Pin == pin {
				from.Sinks = append(from.Sinks[:i], from.Sinks[i+1:]...)
				break
			}
		}
	}
	inst.conns[idx] = to
	to.Sinks = append(to.Sinks, PinRef{Inst: inst, Pin: pin})
	return nil
}

// Resize swaps an instance to a different drive strength of the same base
// cell (pin names must be identical).
func (nl *Netlist) Resize(inst *Instance, to *cell.Cell) error {
	if to.Base != inst.Cell.Base {
		return fmt.Errorf("netlist: resize %s: %s -> %s is not a drive change",
			inst.Name, inst.Cell.Name, to.Name)
	}
	inst.Cell = to
	return nil
}
