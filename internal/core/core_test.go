package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/def"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/route"
	"repro/internal/tech"
)

var (
	ffetLib = cell.NewLibrary(tech.NewFFET())
	cfetLib = cell.NewLibrary(tech.NewCFET())
)

func smallCore(t testing.TB, lib *cell.Library) *netlist.Netlist {
	t.Helper()
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "t", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestAssignPinsShares(t *testing.T) {
	nl := smallCore(t, ffetLib)
	for _, frac := range []float64{0, 0.16, 0.3, 0.5} {
		pa, err := AssignPins(ffetLib, frac, 1, nl)
		if err != nil {
			t.Fatal(err)
		}
		// Check the realized share over the actual netlist's sink pins.
		var back, total float64
		for _, inst := range nl.Instances {
			for _, p := range inst.Cell.Inputs {
				if p.Clock {
					total++
					if pa.Side(inst.Cell.Name, p.Name) == tech.Back {
						back++
					}
					continue
				}
				total++
				if pa.Side(inst.Cell.Name, p.Name) == tech.Back {
					back++
				}
			}
		}
		got := back / total
		if got < frac-0.12 || got > frac+0.12 {
			t.Errorf("frac %.2f: realized instance-weighted share %.3f", frac, got)
		}
	}
}

func TestAssignPinsCFETRestriction(t *testing.T) {
	if _, err := AssignPins(cfetLib, 0.5, 1); err == nil {
		t.Fatal("CFET with backside pins must be rejected")
	}
	if _, err := AssignPins(cfetLib, 0, 1); err != nil {
		t.Fatalf("CFET with frontside pins: %v", err)
	}
	if _, err := AssignPins(ffetLib, 1.5, 1); err == nil {
		t.Fatal("fraction > 1 must be rejected")
	}
}

func TestPartitionAlgorithm1Invariants(t *testing.T) {
	nl := smallCore(t, ffetLib)
	pa, _ := AssignPins(ffetLib, 0.5, 1, nl)
	at := func(ref netlist.PinRef) geom.Point { return geom.Pt(0, 0) }
	sides, err := Partition(nl, pa, tech.Pattern{Front: 12, Back: 12}, at)
	if err != nil {
		t.Fatal(err)
	}
	// Invariant 1: every sink of every net appears on exactly one side.
	seen := make(map[string]map[netlist.PinID]int) // net -> pinID -> count
	for _, n := range sides.Front {
		for _, p := range n.Pins {
			if p.Driver {
				continue
			}
			if seen[n.Name] == nil {
				seen[n.Name] = map[netlist.PinID]int{}
			}
			seen[n.Name][p.ID]++
		}
	}
	for _, n := range sides.Back {
		for _, p := range n.Pins {
			if p.Driver {
				continue
			}
			if seen[n.Name] == nil {
				seen[n.Name] = map[netlist.PinID]int{}
			}
			seen[n.Name][p.ID]++
		}
	}
	for _, n := range nl.Nets {
		for _, s := range n.Sinks {
			id := s.ID()
			if seen[n.Name][id] != 1 {
				t.Fatalf("net %s sink %v assigned %d times, want exactly 1",
					n.Name, id, seen[n.Name][id])
			}
		}
	}
	// Invariant 2: each sub-net is rooted at the (dual-sided) driver.
	for _, n := range append(toRN(sides.Front), toRN(sides.Back)...) {
		drivers := 0
		for _, p := range n.pins {
			if p.driver {
				drivers++
			}
		}
		if drivers != 1 {
			t.Fatalf("sub-net %s has %d drivers", n.name, drivers)
		}
	}
	// Invariant 3: no bridging cells were needed on a dual-sided pattern.
	if sides.Rerouted != 0 {
		t.Errorf("rerouted = %d, want 0 with both sides routable", sides.Rerouted)
	}
}

func TestPartitionFallbackWithoutBackside(t *testing.T) {
	nl := smallCore(t, ffetLib)
	pa, _ := AssignPins(ffetLib, 0.5, 1, nl)
	at := func(ref netlist.PinRef) geom.Point { return geom.Pt(0, 0) }
	sides, err := Partition(nl, pa, tech.Pattern{Front: 12}, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(sides.Back) != 0 {
		t.Fatalf("backside nets = %d on an FM12 pattern", len(sides.Back))
	}
	if sides.Rerouted == 0 {
		t.Error("expected rerouted sinks when backside pins exist but FM-only pattern")
	}
}

func TestRunFlowFFETDualSided(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	cfg.BackPinFraction = 0.5
	f := scratchRun(t, nl, cfg)
	res := f.Result()
	if res.AchievedFreqGHz <= 0 || res.PowerUW <= 0 {
		t.Fatalf("missing PPA: freq=%v power=%v", res.AchievedFreqGHz, res.PowerUW)
	}
	if res.CoreAreaUm2 <= 0 {
		t.Error("missing core area")
	}
	if res.WirelenBackUm == 0 {
		t.Error("dual-sided run has no backside wirelength")
	}
	_, _, merged, err := f.DEF()
	if err != nil {
		t.Fatalf("DEF: %v", err)
	}
	// Merged DEF must contain wires from both sides.
	wl := merged.WirelengthByLayerNm()
	var front, back bool
	for layer := range wl {
		if strings.HasPrefix(layer, "FM") {
			front = true
		}
		if strings.HasPrefix(layer, "BM") {
			back = true
		}
	}
	if !front || !back {
		t.Errorf("merged DEF layers front=%v back=%v, want both", front, back)
	}
	// The merged DEF must serialize and re-parse.
	var buf bytes.Buffer
	if err := merged.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := def.Parse(&buf)
	if err != nil {
		t.Fatalf("merged DEF does not re-parse: %v", err)
	}
	if parsed.TotalWirelengthNm() != merged.TotalWirelengthNm() {
		t.Error("merged DEF wirelength changed through serialization")
	}
}

func TestRunFlowCFET(t *testing.T) {
	nl := smallCore(t, cfetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, 0.70)
	res, err := RunFlow(nl, cfg)
	if err != nil {
		t.Fatalf("RunFlow: %v", err)
	}
	if res.WirelenBackUm != 0 || res.DRVsBack != 0 {
		t.Error("CFET must not route the backside")
	}
	if res.AchievedFreqGHz <= 0 {
		t.Error("missing frequency")
	}
}

func TestRunFlowTapCapInfeasible(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.92)
	res, err := RunFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("92% utilization must be invalid (tap cells)")
	}
	if res.Reason == "" {
		t.Error("missing reason")
	}
}

func TestRunFlowRejectsBadConfigs(t *testing.T) {
	nl := smallCore(t, cfetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.7)
	if _, err := RunFlow(nl, cfg); err == nil {
		t.Fatal("CFET with backside layers must error")
	}
	nlF := smallCore(t, ffetLib)
	cfg = DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, 0.7)
	cfg.BackPinFraction = 0.5
	if _, err := RunFlow(nlF, cfg); err == nil {
		t.Fatal("backside pins without backside layers must error")
	}
}

func TestLEFSideConfigExport(t *testing.T) {
	nl := smallCore(t, ffetLib)
	pa, _ := AssignPins(ffetLib, 0.5, 1, nl)
	sc := pa.LEFSideConfig()
	nBack := 0
	for _, c := range ffetLib.Cells() {
		for _, p := range c.Inputs {
			if pa.Side(c.Name, p.Name) == tech.Back {
				nBack++
				if got := sc.Get(c.Name, p.Name); got.String() != "BACK" {
					t.Errorf("%s/%s LEF side = %v", c.Name, p.Name, got)
				}
			}
		}
	}
	if nBack == 0 {
		t.Error("no backside pins in a 50% assignment")
	}
}

// Small adapters so the invariants test can treat route.Net generically.
type routeNet struct {
	name string
	pins []routePin
}
type routePin struct {
	id     netlist.PinID
	driver bool
}

func toRN(nets []*route.Net) []*routeNet {
	out := make([]*routeNet, 0, len(nets))
	for _, n := range nets {
		rn := &routeNet{name: n.Name}
		for _, p := range n.Pins {
			rn.pins = append(rn.pins, routePin{id: p.ID, driver: p.Driver})
		}
		out = append(out, rn)
	}
	return out
}
