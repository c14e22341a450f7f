// Package power computes block power at the achieved frequency: net
// switching power from extracted capacitance, cell-internal power from the
// characterized transition energies, clock tree power, and leakage. The
// paper's power-frequency trade-off figures (Figs. 9, 11, 13) come from
// this analysis.
package power

import (
	"repro/internal/extract"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Options sets the activity model.
type Options struct {
	// Activity is the average data toggle rate per cycle.
	Activity float64
	// ClockActivity is the clock toggle factor (full swing every cycle).
	ClockActivity float64
	// InputSlewPs picks the internal-energy table operating point.
	InputSlewPs float64
}

// DefaultOptions returns flow defaults (α = 0.15, matching typical RISC-V
// datapath activity).
func DefaultOptions() Options {
	return Options{Activity: 0.15, ClockActivity: 1.0, InputSlewPs: 20}
}

// Result is the power breakdown in µW.
type Result struct {
	TotalUW     float64
	SwitchingUW float64 // net capacitance charging
	InternalUW  float64 // cell self-energy (incl. short-circuit)
	ClockUW     float64 // clock net + clock pin power
	LeakageUW   float64
	FreqGHz     float64
}

// EfficiencyGHzPerW returns the paper's Fig. 13 metric.
func (r *Result) EfficiencyGHzPerW() float64 {
	if r.TotalUW <= 0 {
		return 0
	}
	return r.FreqGHz / (r.TotalUW * 1e-6)
}

// Analyze computes power for the design at the given frequency.
// netRC supplies extracted capacitance indexed by Net.Seq (the flow's
// dense extraction database); nets with no entry (nil, or a short/nil
// slice) use pin caps.
func Analyze(nl *netlist.Netlist, stack *tech.Stack, netRC []*extract.NetRC, freqGHz float64, opt Options) *Result {
	res := &Result{FreqGHz: freqGHz}
	vdd2 := stack.VDD * stack.VDD

	capOf := func(n *netlist.Net) float64 {
		if n.Seq < len(netRC) && netRC[n.Seq] != nil {
			return netRC[n.Seq].TotalCapFF
		}
		var c float64
		for _, s := range n.Sinks {
			if !s.IsPort() {
				c += s.Inst.Cell.InputCap(s.Pin)
			}
		}
		return c
	}

	// Net switching power: α · C · V² · f (fF·V²·GHz = µW).
	for _, n := range nl.Nets {
		c := capOf(n)
		alpha := opt.Activity
		if n.IsClock || isClockTreeNet(n) {
			alpha = opt.ClockActivity
			res.ClockUW += alpha * c * vdd2 * freqGHz
			continue
		}
		res.SwitchingUW += alpha * c * vdd2 * freqGHz
	}

	// Cell internal power.
	for _, inst := range nl.Instances {
		if inst.Cell.IsSeq() {
			// Clock pin energy every cycle + data transfer at α.
			res.ClockUW += inst.Cell.Seq.ClockEnergy * freqGHz
			res.InternalUW += opt.Activity * 0.5 * vdd2 * freqGHz // internal transfer
			res.LeakageUW += inst.Cell.LeakageNW / 1000
			continue
		}
		out := inst.OutputNet()
		if out == nil {
			res.LeakageUW += inst.Cell.LeakageNW / 1000
			continue
		}
		alpha := opt.Activity
		if isClockTreeNet(out) {
			alpha = opt.ClockActivity
		}
		load := capOf(out)
		var e float64
		for _, p := range inst.Cell.Inputs {
			if a := inst.Cell.Arc(p.Name); a != nil {
				er := a.EnergyRise.Lookup(opt.InputSlewPs, load)
				ef := a.EnergyFall.Lookup(opt.InputSlewPs, load)
				e = (er + ef) / 2
				break // representative arc
			}
		}
		contribution := alpha * e * freqGHz
		if isClockTreeNet(out) {
			res.ClockUW += contribution
		} else {
			res.InternalUW += contribution
		}
		res.LeakageUW += inst.Cell.LeakageNW / 1000
	}

	res.TotalUW = res.SwitchingUW + res.InternalUW + res.ClockUW + res.LeakageUW
	return res
}

// isClockTreeNet identifies CTS buffer output nets by naming convention.
func isClockTreeNet(n *netlist.Net) bool {
	return len(n.Name) > 7 && n.Name[:7] == "ctsbuf_"
}
