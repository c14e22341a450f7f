package sta

import (
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/extract"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.NewFFET())

// pipeline builds: ff1.Q -> inv chain (n stages) -> ff2.D, shared clock.
func pipeline(t *testing.T, stages int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("pipe", lib)
	nl.AddPort("clk", netlist.In)
	nl.MarkClock("clk")
	nl.MustAdd("ff1", lib.MustCell("DFFD1"), map[string]string{"D": "loop", "CP": "clk", "Q": "s0"})
	prev := "s0"
	for i := 0; i < stages; i++ {
		out := "s" + string(rune('1'+i))
		nl.MustAdd("inv"+out, lib.MustCell("INVD1"), map[string]string{"I": prev, "ZN": out})
		prev = out
	}
	nl.MustAdd("ff2", lib.MustCell("DFFD1"), map[string]string{"D": prev, "CP": "clk", "Q": "loop"})
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// arrivals builds a dense Instance.Seq-indexed clock arrival table.
func arrivals(nl *netlist.Netlist, byName map[string]float64) []float64 {
	out := make([]float64, len(nl.Instances))
	for name, a := range byName {
		out[nl.Instance(name).Seq] = a
	}
	return out
}

func TestAnalyzePipeline(t *testing.T) {
	nl := pipeline(t, 4)
	res, err := Analyze(nl, Input{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MinPeriodPs <= 0 || res.AchievedFreqGHz <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.RegToReg != 2 {
		t.Errorf("endpoints = %d, want 2", res.RegToReg)
	}
	// More stages -> longer period.
	nl8 := pipeline(t, 8)
	res8, err := Analyze(nl8, Input{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(res8.MinPeriodPs > res.MinPeriodPs) {
		t.Errorf("8-stage period %.1f must exceed 4-stage %.1f",
			res8.MinPeriodPs, res.MinPeriodPs)
	}
	if len(res.CriticalPath) < 3 {
		t.Errorf("critical path too short: %v", res.CriticalPath)
	}
}

func TestNetRCSlowsPath(t *testing.T) {
	nl := pipeline(t, 2)
	base, err := Analyze(nl, Input{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Attach heavy RC to the mid net (single sink: invs2/I).
	rc := make([]*extract.NetRC, len(nl.Nets))
	rc[nl.Net("s1").Seq] = &extract.NetRC{
		Name:       "s1",
		TotalCapFF: 20,
		ElmorePs:   []float64{40},
	}
	slow, err := Analyze(nl, Input{NetRC: rc}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !(slow.MinPeriodPs > base.MinPeriodPs+30) {
		t.Errorf("RC-loaded period %.1f should exceed unloaded %.1f by the wire delay",
			slow.MinPeriodPs, base.MinPeriodPs)
	}
}

func TestClockArrivalsBalance(t *testing.T) {
	nl := pipeline(t, 4)
	base, err := Analyze(nl, Input{ClockArrivalPs: []float64{}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A common insertion delay on both flops cancels exactly.
	arr := arrivals(nl, map[string]float64{"ff1": 20, "ff2": 20})
	res, err := Analyze(nl, Input{ClockArrivalPs: arr}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.MinPeriodPs - base.MinPeriodPs; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("balanced insertion delay must not change the period (%.2f vs %.2f)",
			res.MinPeriodPs, base.MinPeriodPs)
	}
	// Skewing the capture flop of the long path moves the binding path to
	// the loop-back check instead; the period must never beat the pure
	// clk-q + setup bound.
	skew, err := Analyze(nl,
		Input{ClockArrivalPs: arrivals(nl, map[string]float64{"ff1": 0, "ff2": 15})},
		DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The binding endpoint shifts to the loop-back check; with the two
	// paths nearly balanced the period stays within a few ps of base.
	if d := skew.MinPeriodPs - base.MinPeriodPs; d > 5 || d < -20 {
		t.Errorf("skewed period %.2f implausible vs base %.2f", skew.MinPeriodPs, base.MinPeriodPs)
	}
}

func TestNoEndpointsRejected(t *testing.T) {
	nl := netlist.New("comb", lib)
	nl.AddPort("a", netlist.In)
	nl.MustAdd("i1", lib.MustCell("INVD1"), map[string]string{"I": "a", "ZN": "y"})
	if _, err := Analyze(nl, Input{}, DefaultOptions()); err == nil {
		t.Fatal("design without reg-to-reg paths must error")
	}
}

// TestNewEngineRejectsUnflattenableArc pins the one NLDM kernel: every arc
// propagation evaluates must have its four delay/slew tables on one (slew,
// load) axis pair, so an arc whose fall-delay table uses a different load
// axis is refused at build time instead of being timed some other way.
func TestNewEngineRejectsUnflattenableArc(t *testing.T) {
	inv := lib.MustCell("INVD1")
	arc := *inv.Arc("I")
	loads := append([]float64(nil), arc.DelayFall.Loads...)
	loads[len(loads)-1] *= 2
	arc.DelayFall = liberty.NewTable(arc.DelayFall.Slews, loads, func(s, l float64) float64 { return s + l })
	skewed := &cell.Cell{Name: "SKEWINV", Base: "INV", Drive: 1, Fn: inv.Fn, Arch: inv.Arch,
		WidthCPP: inv.WidthCPP, Inputs: inv.Inputs, Out: inv.Out,
		Arcs: map[string]*liberty.Arc{"I": &arc}}

	nl := netlist.New("skew", lib)
	nl.AddPort("clk", netlist.In)
	nl.MarkClock("clk")
	nl.MustAdd("ff1", lib.MustCell("DFFD1"), map[string]string{"D": "s1", "CP": "clk", "Q": "s0"})
	nl.MustAdd("inv", skewed, map[string]string{"I": "s0", "ZN": "s1"})
	if _, err := NewEngine(nl); err == nil || !strings.Contains(err.Error(), "SKEWINV") {
		t.Fatalf("NewEngine = %v, want an error naming cell SKEWINV", err)
	}
}

// TestEngineReuseMatchesOneShot pins the Engine contract: repeated Analyze
// calls on one Engine reproduce the one-shot result exactly, for both the
// bare and the RC-loaded view.
func TestEngineReuseMatchesOneShot(t *testing.T) {
	nl := pipeline(t, 4)
	rc := make([]*extract.NetRC, len(nl.Nets))
	rc[nl.Net("s2").Seq] = &extract.NetRC{Name: "s2", TotalCapFF: 8, ElmorePs: []float64{12}}
	inputs := []Input{{}, {NetRC: rc}, {ClockArrivalPs: arrivals(nl, map[string]float64{"ff1": 7, "ff2": 3})}}

	eng, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, in := range inputs {
			want, err := Analyze(nl, in, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			wantPath := append([]PathPoint(nil), want.CriticalPath...)
			got, err := eng.Analyze(in, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got.MinPeriodPs != want.MinPeriodPs || got.WorstSlewPs != want.WorstSlewPs ||
				got.MaxArrivalPs != want.MaxArrivalPs || got.RegToReg != want.RegToReg {
				t.Fatalf("round %d input %d: engine %+v != one-shot %+v", round, i, got, want)
			}
			if len(got.CriticalPath) != len(wantPath) {
				t.Fatalf("round %d input %d: path length %d != %d", round, i, len(got.CriticalPath), len(wantPath))
			}
			for j := range wantPath {
				if got.CriticalPath[j] != wantPath[j] {
					t.Fatalf("round %d input %d: path[%d] %+v != %+v", round, i, j, got.CriticalPath[j], wantPath[j])
				}
			}
		}
	}
}

// TestEngineAnalyzeAllocsFree pins the arena property the sweep throughput
// depends on: once warmed, repeated Analyze on one Engine allocates nothing.
func TestEngineAnalyzeAllocsFree(t *testing.T) {
	nl := pipeline(t, 8)
	eng, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{}
	opt := DefaultOptions()
	if _, err := eng.Analyze(in, opt); err != nil { // warm the path buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Analyze(in, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Analyze allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGoldenPipeline pins the analysis end to end on a fixed netlist with
// a fixed dense RC view and CTS arrivals: MinPeriodPs and the full
// critical path must reproduce the recorded values exactly (up to one
// part in 1e12 for cross-platform float safety). Any change to arrival
// propagation, Elmore application, or endpoint checks shows up here.
func TestGoldenPipeline(t *testing.T) {
	nl := pipeline(t, 4)
	rc := make([]*extract.NetRC, len(nl.Nets))
	for i, n := range nl.Nets {
		if n.IsClock {
			continue
		}
		el := make([]float64, len(n.Sinks))
		for j := range el {
			el[j] = float64(3 + i + 2*j)
		}
		rc[n.Seq] = &extract.NetRC{Name: n.Name, TotalCapFF: float64(2 + i), ElmorePs: el}
	}
	arr := arrivals(nl, map[string]float64{"ff1": 21.5, "ff2": 18.25})
	res, err := Analyze(nl, Input{NetRC: rc, ClockArrivalPs: arr}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= 1e-12*want
	}
	if !near(res.MinPeriodPs, 285.82197054791351) {
		t.Errorf("MinPeriodPs = %.17g, want 285.82197054791351", res.MinPeriodPs)
	}
	if !near(res.MaxArrivalPs, 288.33019257219894) {
		t.Errorf("MaxArrivalPs = %.17g, want 288.33019257219894", res.MaxArrivalPs)
	}
	if !near(res.WorstSlewPs, 179.14064534258659) {
		t.Errorf("WorstSlewPs = %.17g, want 179.14064534258659", res.WorstSlewPs)
	}
	if res.RegToReg != 2 {
		t.Errorf("RegToReg = %d, want 2", res.RegToReg)
	}
	want := []PathPoint{
		{Inst: "ff1", ArrivalPs: 57.141395132069462},
		{Inst: "invs1", ArrivalPs: 96.955443074666249},
		{Inst: "invs2", ArrivalPs: 151.30407812325973},
		{Inst: "invs3", ArrivalPs: 215.22696312258034},
		{Inst: "invs4", ArrivalPs: 288.33019257219894},
		{Inst: "ff2", ArrivalPs: 285.82197054791351},
	}
	if len(res.CriticalPath) != len(want) {
		t.Fatalf("critical path = %+v, want %d points", res.CriticalPath, len(want))
	}
	for i, w := range want {
		g := res.CriticalPath[i]
		if g.Inst != w.Inst || !near(g.ArrivalPs, w.ArrivalPs) {
			t.Errorf("path[%d] = %s@%.17g, want %s@%.17g", i, g.Inst, g.ArrivalPs, w.Inst, w.ArrivalPs)
		}
	}
}
