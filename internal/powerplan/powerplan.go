// Package powerplan builds the backside power delivery network (BSPDN) and
// places the paper's novel Power Tap Cells.
//
// Both architectures are powered from the wafer backside (Section III.B):
//
//   - FFET: backside M0 VDD rails tap the BSPDN directly; frontside VSS M0
//     rails connect through Power Tap Cells — fixed cells placed in columns
//     directly above the backside VSS power stripes. The tap columns (plus
//     legalization halo) consume row sites, which is what caps achievable
//     placement utilization at ~86% in the paper's Fig. 8(a).
//   - CFET: the buried power rails (BPR) connect to the BSPDN through
//     nTSVs under the rails; no row sites are consumed, so CFET
//     utilization is limited by routability instead.
package powerplan

import (
	"fmt"
	"sync"

	"repro/internal/def"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Tap cell geometry (CPP units).
const (
	TapWidthCPP = 4 // Power Tap Cell footprint width
	TapHaloCPP  = 1 // keep-out on each side for legalization
)

// TapCell is one fixed Power Tap Cell.
type TapCell struct {
	Name string
	Pos  geom.Point // lower-left, on a row
}

// Stripe is one BSPDN power stripe (vertical, backside), drawn on the
// layer SpecialNets is given.
type Stripe struct {
	Net     string // "VDD" or "VSS"
	X       int64  // centerline
	WidthNm int64
}

// Result is the power plan.
type Result struct {
	Arch     tech.Arch
	Stripes  []Stripe
	Taps     []TapCell
	NTSVs    []geom.Point // CFET: nTSV locations under the BPRs
	Feasible bool
	Reason   string
	// Blockages are row intervals consumed by tap cells + halos, used by
	// the legalizer: Blockages[rowIndex] lists blocked X intervals.
	Blockages map[int][]geom.Interval

	tapOnce  sync.Once
	tapComps []*def.Component // built once by TapComponents
}

// MaxUtilization returns the highest placement utilization the tap-cell
// pattern admits for the architecture (1.0 when no sites are consumed).
// The 1.5% legalization margin reflects discrete site fragmentation.
func MaxUtilization(arch tech.Arch, stack *tech.Stack) float64 {
	if arch != tech.FFET {
		return 1.0
	}
	blocked := float64(TapWidthCPP+2*TapHaloCPP) / float64(stack.PowerStripePitchCPP)
	return (1 - blocked) * 0.97
}

// Plan builds the BSPDN for the floorplan. Stripe positions, tap cells,
// their row blockages and the utilization feasibility follow from the
// floorplan and its stack's architecture alone; the metal pattern only
// names the stripes' layer, which SpecialNets takes.
func Plan(fp *floorplan.Plan) *Result {
	st := fp.Stack
	res := &Result{
		Arch:      st.Arch,
		Feasible:  true,
		Blockages: make(map[int][]geom.Interval),
	}
	pitch := st.PowerStripePitchNm() // same-net pitch, 64 CPP
	half := pitch / 2                // VSS and VDD interleave
	stripeW := int64(240)            // wide backside stripes

	// Vertical stripes across the core: VSS at k*pitch, VDD offset by half.
	for x := int64(0); x <= fp.Core.Hi.X; x += pitch {
		res.Stripes = append(res.Stripes, Stripe{Net: "VSS", X: x, WidthNm: stripeW})
		if x+half <= fp.Core.Hi.X {
			res.Stripes = append(res.Stripes, Stripe{Net: "VDD", X: x + half, WidthNm: stripeW})
		}
	}

	switch st.Arch {
	case tech.FFET:
		// One Power Tap Cell per row per VSS stripe, centered on the stripe.
		tapW := int64(TapWidthCPP) * st.CPPNm
		haloW := int64(TapHaloCPP) * st.CPPNm
		for _, s := range res.Stripes {
			if s.Net != "VSS" {
				continue
			}
			x := geom.SnapDown(s.X-tapW/2, 0, st.CPPNm)
			if x < fp.Core.Lo.X {
				x = fp.Core.Lo.X
			}
			if x+tapW > fp.Core.Hi.X {
				continue
			}
			for _, row := range fp.Rows {
				res.Taps = append(res.Taps, TapCell{
					Name: fmt.Sprintf("tap_x%d_r%d", s.X, row.Index),
					Pos:  geom.Pt(x, row.Y),
				})
				res.Blockages[row.Index] = append(res.Blockages[row.Index],
					geom.Interval{Lo: x - haloW, Hi: x + tapW + haloW})
			}
		}
	case tech.CFET:
		// nTSVs under the BPRs at every stripe crossing; no site cost.
		for _, s := range res.Stripes {
			for _, row := range fp.Rows {
				res.NTSVs = append(res.NTSVs, geom.Pt(s.X, row.Y))
			}
		}
	}

	// Feasibility: requested utilization against tap-consumed area.
	if maxU := MaxUtilization(st.Arch, st); fp.Utilization > maxU {
		res.Feasible = false
		res.Reason = fmt.Sprintf(
			"utilization %.0f%% exceeds %.0f%% cap from Power Tap Cell placement (64 CPP stripe pitch)",
			fp.Utilization*100, maxU*100)
	}
	return res
}

// SpecialNets renders the plan's stripes as DEF special nets drawn on
// layer, the backside layer the metal pattern leaves for the PDN
// (BM<Stack.HighestPDNLayer>).
func (r *Result) SpecialNets(fp *floorplan.Plan, layer string) []*def.SNet {
	vdd := &def.SNet{Name: "VDD", Use: "POWER"}
	vss := &def.SNet{Name: "VSS", Use: "GROUND"}
	for _, s := range r.Stripes {
		w := def.Wire{
			Layer:   layer,
			WidthNm: s.WidthNm,
			From:    geom.Pt(s.X, fp.Core.Lo.Y),
			To:      geom.Pt(s.X, fp.Core.Hi.Y),
		}
		if s.Net == "VDD" {
			vdd.Wires = append(vdd.Wires, w)
		} else {
			vss.Wires = append(vss.Wires, w)
		}
	}
	return []*def.SNet{vdd, vss}
}

// TapComponents renders the tap cells as fixed DEF components.
func (r *Result) TapComponents() []*def.Component {
	// Taps are frozen once Plan returns, so the DEF components are built
	// once and shared by every caller (both side DEFs reference the same
	// read-only components; def.Merge copies them when combining). Forks
	// of one powerplan checkpoint reach here concurrently, hence the Once.
	r.tapOnce.Do(func() {
		r.tapComps = make([]*def.Component, 0, len(r.Taps))
		for _, t := range r.Taps {
			r.tapComps = append(r.tapComps, &def.Component{Name: t.Name, Macro: "PWRTAP", Pos: t.Pos, Fixed: true})
		}
	})
	return r.tapComps
}
