// Package synth implements the logic-synthesis backend of the evaluation
// flow: target-frequency-driven gate sizing and high-fanout buffering over
// a technology-mapped netlist. It substitutes for the commercial synthesis
// step the paper runs before P&R (the netlist itself comes from the
// generator in internal/riscv, which plays the role of the RTL).
//
// The sizing algorithm is logical-effort flavored: the clock period is
// split into per-stage delay budgets using the design's combinational
// depth; each gate is then sized so its switched-RC delay under the
// estimated load (sink pin caps + a fanout-based wire-load model) meets
// the budget. Tighter targets therefore grow area and power smoothly,
// which is what produces the power/frequency trade-off curves of the
// paper's Figs. 9-11.
package synth

import (
	"fmt"

	"repro/internal/netlist"
)

// Options configures synthesis.
type Options struct {
	TargetFreqGHz float64
	// MaxFanout bounds signal-net fanout; larger nets get buffer trees.
	MaxFanout int
	// WireCapPerFanout is the wire-load model: estimated wire capacitance
	// added per sink, in fF.
	WireCapPerFanout float64
	// WireCapBase is the constant term of the wire-load model, in fF.
	WireCapBase float64
	// Passes is the number of sizing sweeps (load estimates converge as
	// sink sizes settle).
	Passes int
}

// DefaultOptions returns the flow defaults.
func DefaultOptions(targetGHz float64) Options {
	return Options{
		TargetFreqGHz:    targetGHz,
		MaxFanout:        8,
		WireCapPerFanout: 0.12,
		WireCapBase:      0.15,
		Passes:           3,
	}
}

// Result reports what synthesis did.
type Result struct {
	Netlist       *netlist.Netlist
	TargetFreqGHz float64
	Depth         int // combinational levels
	BuffersAdded  int
	Upsized       int
	AreaUm2       float64
}

// Run returns a sized and buffered copy of the input netlist, taken with
// Snapshot. It only reads nl, so concurrent runs may share one input, as
// every synthesis root of a sweep shares the suite's netlist. The options
// are used as given; start from DefaultOptions.
func Run(nl *netlist.Netlist, opt Options) (*Result, error) {
	if opt.TargetFreqGHz <= 0 {
		return nil, fmt.Errorf("synth: target frequency must be positive")
	}
	if opt.MaxFanout < 2 {
		return nil, fmt.Errorf("synth: max fanout %d must be at least 2", opt.MaxFanout)
	}
	out := nl.Snapshot()
	res := &Result{Netlist: out, TargetFreqGHz: opt.TargetFreqGHz}

	nb, err := bufferHighFanout(out, opt)
	if err != nil {
		return nil, err
	}
	res.BuffersAdded = nb

	levels, cyclic := out.TopoLevels()
	if len(cyclic) > 0 {
		return nil, fmt.Errorf("synth: combinational cycles present")
	}
	res.Depth = len(levels)

	res.Upsized = size(out, levels, opt)
	res.AreaUm2 = out.CellAreaUm2()
	return res, nil
}

// bufferHighFanout splits nets whose fanout exceeds MaxFanout with buffer
// trees. Clock nets are left to CTS.
func bufferHighFanout(nl *netlist.Netlist, opt Options) (int, error) {
	added := 0
	// Iterate until stable; inserted buffer nets can themselves be fine
	// (each new net has <= MaxFanout sinks by construction).
	nets := append([]*netlist.Net(nil), nl.Nets...)
	for _, n := range nets {
		if n.IsClock || n.Fanout() <= opt.MaxFanout {
			continue
		}
		// Only instance sinks are regrouped; port sinks stay on the root.
		var instSinks []netlist.PinRef
		for _, s := range n.Sinks {
			if !s.IsPort() {
				instSinks = append(instSinks, s)
			}
		}
		if len(instSinks) <= opt.MaxFanout {
			continue
		}
		level := append([]netlist.PinRef(nil), instSinks...)
		for len(level) > opt.MaxFanout {
			groups := (len(level) + opt.MaxFanout - 1) / opt.MaxFanout
			var next []netlist.PinRef
			for g := 0; g < groups; g++ {
				lo := g * opt.MaxFanout
				hi := lo + opt.MaxFanout
				if hi > len(level) {
					hi = len(level)
				}
				bufName := fmt.Sprintf("synbuf_%s_%d_%d", sanitize(n.Name), added, g)
				netName := bufName + "_z"
				buf := nl.Lib.PickDrive("BUF", 4)
				inst, err := nl.AddInstance(bufName, buf, map[string]string{"Z": netName})
				if err != nil {
					return added, err
				}
				bn := nl.Net(netName)
				for _, s := range level[lo:hi] {
					if err := nl.Reconnect(s.Inst, s.Pin, bn); err != nil {
						return added, err
					}
				}
				// Buffer input joins the next level up.
				next = append(next, netlist.PinRef{Inst: inst, Pin: "I"})
				added++
			}
			level = next
		}
		// Attach the top buffer level to the original net.
		for _, s := range level {
			if s.Inst.Conn("I") == nil {
				if err := nl.Reconnect(s.Inst, "I", n); err != nil {
					return added, err
				}
			}
		}
	}
	return added, nil
}

func sanitize(s string) string {
	clean := func(r rune) bool {
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_'
	}
	dirty := false
	for _, r := range s {
		if !clean(r) {
			dirty = true
			break
		}
	}
	if !dirty { // the common case: generator names are already clean
		return s
	}
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if clean(r) {
			out = append(out, r)
		} else {
			out = append(out, '_')
		}
	}
	return string(out)
}

// loadOn estimates the capacitive load on an instance's output: sink input
// pin caps plus the wire-load model.
func loadOn(n *netlist.Net, opt Options) float64 {
	load := opt.WireCapBase + opt.WireCapPerFanout*float64(n.Fanout())
	for _, s := range n.Sinks {
		if s.IsPort() {
			load += 1.0 // nominal external pin load, fF
			continue
		}
		load += s.Inst.Cell.InputCap(s.Pin)
	}
	return load
}

// size performs budget-driven drive selection. Returns upsized count.
func size(nl *netlist.Netlist, levels [][]*netlist.Instance, opt Options) int {
	depth := len(levels)
	if depth == 0 {
		return 0
	}
	periodPs := 1000.0 / opt.TargetFreqGHz
	// Reserve a fraction for clocking overhead (clk->q, setup, skew) and
	// wires; split the rest across logic stages.
	budget := periodPs * 0.72 / float64(depth)
	if budget < 1 {
		budget = 1
	}
	// A stage with drive resistance R(kΩ) and load L(fF) has delay
	// ~0.7·R·L; require drive so that R1/drive·L·0.7 <= budget.
	const rDrive1 = 8.0 // kΩ, matches the characterization anchor
	upsized := 0
	for pass := 0; pass < opt.Passes; pass++ {
		changed := 0
		// Reverse topological order so sink sizes settle first.
		for li := len(levels) - 1; li >= 0; li-- {
			for _, inst := range levels[li] {
				out := inst.OutputNet()
				if out == nil || out.IsClock {
					continue
				}
				load := loadOn(out, opt)
				needR := budget / (0.7 * load)
				want := 1
				if needR > 0 {
					for want = 1; want < 8; want *= 2 {
						if rDrive1/float64(want) <= needR {
							break
						}
					}
				} else {
					want = 8
				}
				c := nl.Lib.PickDrive(inst.Cell.Base, want)
				if c != nil && c != inst.Cell {
					if c.Drive > inst.Cell.Drive {
						upsized++
					}
					_ = nl.Resize(inst, c)
					changed++
				}
			}
		}
		// Flops can also be considered fixed-drive; stop when stable.
		if changed == 0 {
			break
		}
	}
	return upsized
}
