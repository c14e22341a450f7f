package cell

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func libs(t *testing.T) (*Library, *Library) {
	t.Helper()
	return NewLibrary(tech.NewFFET()), NewLibrary(tech.NewCFET())
}

func TestLibraryHas28Cells(t *testing.T) {
	ffet, cfet := libs(t)
	if got := len(ffet.Cells()); got != 28 {
		t.Errorf("FFET library has %d cells, want 28 (Fig. 4)", got)
	}
	if got := len(cfet.Cells()); got != 28 {
		t.Errorf("CFET library has %d cells, want 28", got)
	}
	// netlist.Remap rebinds instances to the same-named cell and keeps
	// their connection tables, which are indexed by canonical pin index,
	// so the two cells must list the same pins in the same order.
	for _, name := range ffet.CellNames() {
		f, c := ffet.Cell(name), cfet.Cell(name)
		if c == nil {
			t.Errorf("CFET library missing %s", name)
			continue
		}
		if f.NumPins() != c.NumPins() {
			t.Errorf("%s: FFET has %d pins, CFET %d", name, f.NumPins(), c.NumPins())
			continue
		}
		for i := range f.NumPins() {
			if f.PinName(i) != c.PinName(i) {
				t.Errorf("%s pin %d: FFET %s, CFET %s", name, i, f.PinName(i), c.PinName(i))
			}
		}
	}
}

func TestFig4AreaGains(t *testing.T) {
	ffet, cfet := libs(t)
	gain := func(name string) float64 {
		f, c := ffet.MustCell(name), cfet.MustCell(name)
		return 100 * (1 - f.AreaUm2(ffet.Stack)/c.AreaUm2(cfet.Stack))
	}
	// Pure height-scaling cells: exactly 0.5T/4T = 12.5%.
	for _, n := range []string{"INVD1", "INVD4", "BUFD2", "NAND2D1", "NOR2D2",
		"AND2D1", "OR2D2", "AOI21D1", "OAI21D2"} {
		if g := gain(n); g < 12.4 || g > 12.6 {
			t.Errorf("%s area gain = %.2f%%, want 12.5%%", n, g)
		}
	}
	// Split Gate cells must beat 12.5% clearly (paper: MUX/DFF extra gain).
	for _, n := range []string{"MUX2D1", "MUX2D2", "DFFD1", "DFFRSD1"} {
		if g := gain(n); g < 25 {
			t.Errorf("%s area gain = %.2f%%, want > 25%% from Split Gate", n, g)
		}
	}
	// Extra-Drain-Merge cells must be below 12.5% (near zero or negative).
	for _, n := range []string{"AOI22D1", "AOI22D2", "OAI22D1", "OAI22D2"} {
		if g := gain(n); g > 5 {
			t.Errorf("%s area gain = %.2f%%, want <= 5%% (extra Drain Merge)", n, g)
		}
	}
}

func TestCellGeometry(t *testing.T) {
	ffet, cfet := libs(t)
	inv := ffet.MustCell("INVD1")
	if inv.WidthNm(ffet.Stack) != 100 {
		t.Errorf("INVD1 width = %d nm, want 100 (2 CPP)", inv.WidthNm(ffet.Stack))
	}
	if got := inv.AreaNm2(ffet.Stack); got != 100*105 {
		t.Errorf("FFET INVD1 area = %d nm², want 10500", got)
	}
	if got := cfet.MustCell("INVD1").AreaNm2(cfet.Stack); got != 100*120 {
		t.Errorf("CFET INVD1 area = %d nm², want 12000", got)
	}
}

func TestTable1CharacterizationShape(t *testing.T) {
	ffet, cfet := libs(t)
	diff := func(name string, get func(c *Cell) float64) float64 {
		return 100 * (get(ffet.MustCell(name))/get(cfet.MustCell(name)) - 1)
	}
	at := func(c *Cell) (slew, load float64) { return 20, float64(c.Drive) }

	for _, name := range []string{"INVD1", "INVD2", "INVD4", "BUFD1", "BUFD2", "BUFD4"} {
		// Leakage identical across archs (same intrinsic transistors).
		if d := diff(name, func(c *Cell) float64 { return c.LeakageNW }); d != 0 {
			t.Errorf("%s leakage diff = %.2f%%, want 0", name, d)
		}
		// FFET timing strictly better on the fall edge.
		dFall := diff(name, func(c *Cell) float64 {
			s, l := at(c)
			return c.Arc("I").DelayFall.Lookup(s, l)
		})
		if dFall >= 0 {
			t.Errorf("%s fall delay diff = %.2f%%, want negative", name, dFall)
		}
		dRise := diff(name, func(c *Cell) float64 {
			s, l := at(c)
			return c.Arc("I").DelayRise.Lookup(s, l)
		})
		if dRise >= 0 {
			t.Errorf("%s rise delay diff = %.2f%%, want negative", name, dRise)
		}
		// Fall gains exceed rise gains (Table I trend).
		if !(dFall < dRise) {
			t.Errorf("%s: fall gain (%.2f%%) should exceed rise gain (%.2f%%)",
				name, dFall, dRise)
		}
	}

	// INV transition power ~parity (paper +0.2..0.3%); BUF clearly lower.
	transE := func(c *Cell) float64 {
		s, l := at(c)
		return c.Arc("I").EnergyRise.Lookup(s, l) + c.Arc("I").EnergyFall.Lookup(s, l)
	}
	for _, name := range []string{"INVD1", "INVD2", "INVD4"} {
		d := diff(name, transE)
		if d < -0.5 || d > 1.5 {
			t.Errorf("%s transition power diff = %.2f%%, want ~parity", name, d)
		}
	}
	prev := 0.0
	for _, name := range []string{"BUFD1", "BUFD2", "BUFD4"} {
		d := diff(name, transE)
		if d >= -2 {
			t.Errorf("%s transition power diff = %.2f%%, want clearly negative", name, d)
		}
		if d > prev {
			t.Errorf("%s transition power gain should grow with drive (%.2f > %.2f)",
				name, d, prev)
		}
		prev = d
	}
}

func TestFuncEval(t *testing.T) {
	cases := []struct {
		fn   Func
		in   []bool
		want bool
	}{
		{FnINV, []bool{true}, false},
		{FnBUF, []bool{true}, true},
		{FnNAND2, []bool{true, true}, false},
		{FnNAND2, []bool{true, false}, true},
		{FnNOR2, []bool{false, false}, true},
		{FnNOR2, []bool{true, false}, false},
		{FnAND2, []bool{true, true}, true},
		{FnOR2, []bool{false, true}, true},
		{FnAOI21, []bool{true, true, false}, false},
		{FnAOI21, []bool{true, false, false}, true},
		{FnAOI21, []bool{false, false, true}, false},
		{FnOAI21, []bool{false, false, true}, true},
		{FnOAI21, []bool{true, false, true}, false},
		{FnAOI22, []bool{true, true, false, false}, false},
		{FnAOI22, []bool{true, false, false, true}, true},
		{FnOAI22, []bool{true, false, false, true}, false},
		{FnOAI22, []bool{false, false, true, true}, true},
		{FnMUX2, []bool{true, false, false}, true},
		{FnMUX2, []bool{true, false, true}, false},
		{FnMUX2, []bool{false, true, true}, true},
	}
	for _, c := range cases {
		if got := c.fn.Eval(c.in); got != c.want {
			t.Errorf("%v.Eval(%v) = %v, want %v", c.fn, c.in, got, c.want)
		}
	}
}

func TestFuncEvalPanicsOnSequential(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval on DFF should panic")
		}
	}()
	FnDFF.Eval([]bool{true, false})
}

func TestPinSides(t *testing.T) {
	ffet, cfet := libs(t)
	for _, c := range ffet.Cells() {
		if !c.Out.DualSided {
			t.Errorf("FFET %s output pin must be dual-sided (Drain Merge)", c.Name)
		}
		for _, p := range c.Inputs {
			if !p.DualSided {
				t.Errorf("FFET %s input %s must be dual-side capable", c.Name, p.Name)
			}
		}
	}
	for _, c := range cfet.Cells() {
		if c.Out.DualSided {
			t.Errorf("CFET %s output pin must be frontside-only", c.Name)
		}
	}
}

func TestSequentialCells(t *testing.T) {
	ffet, cfet := libs(t)
	for _, lib := range []*Library{ffet, cfet} {
		dff := lib.MustCell("DFFD1")
		if !dff.IsSeq() || dff.Seq == nil {
			t.Fatalf("%s DFFD1 must be sequential", lib.Arch)
		}
		if dff.Seq.ClockPin != "CP" || dff.Seq.DataPin != "D" {
			t.Errorf("DFF pins = %s/%s", dff.Seq.ClockPin, dff.Seq.DataPin)
		}
		if dff.Seq.SetupPs <= 0 {
			t.Errorf("setup = %v", dff.Seq.SetupPs)
		}
		if q := dff.Seq.ClkQWorst(20, 1); q <= 0 || q > 100 {
			t.Errorf("clk-q = %v ps implausible", q)
		}
	}
	// FFET DFF must be faster than CFET DFF (fewer internal supervias).
	fq := ffet.MustCell("DFFD1").Seq.ClkQWorst(20, 1)
	cq := cfet.MustCell("DFFD1").Seq.ClkQWorst(20, 1)
	if fq >= cq {
		t.Errorf("FFET clk-q (%.2f) must beat CFET (%.2f)", fq, cq)
	}
}

func TestLibraryLookups(t *testing.T) {
	ffet, _ := libs(t)
	if got := len(ffet.ByBase("INV")); got != 4 {
		t.Errorf("INV drives = %d, want 4", got)
	}
	if c := ffet.Smallest("INV"); c == nil || c.Drive != 1 {
		t.Errorf("Smallest INV = %+v", c)
	}
	if c := ffet.PickDrive("INV", 3); c == nil || c.Drive != 4 {
		t.Errorf("PickDrive(INV,3) = %+v, want D4", c)
	}
	if c := ffet.PickDrive("INV", 100); c == nil || c.Drive != 8 {
		t.Errorf("PickDrive(INV,100) = %+v, want D8 fallback", c)
	}
	if c := ffet.PickDrive("NOPE", 1); c != nil {
		t.Errorf("PickDrive on unknown base = %+v, want nil", c)
	}
	inv := ffet.MustCell("INVD1")
	if _, ok := inv.InputPin("I"); !ok {
		t.Error("INVD1 missing pin I")
	}
	if _, ok := inv.InputPin("ZZ"); ok {
		t.Error("INVD1 should not have pin ZZ")
	}
	if cap := inv.InputCap("I"); cap <= 0 {
		t.Errorf("INVD1 input cap = %v", cap)
	}
}

func TestArcsExistForAllInputs(t *testing.T) {
	ffet, cfet := libs(t)
	for _, lib := range []*Library{ffet, cfet} {
		for _, c := range lib.Cells() {
			if c.IsSeq() {
				continue
			}
			for _, p := range c.Inputs {
				arc := c.Arc(p.Name)
				if arc == nil {
					t.Errorf("%s %s: missing arc from %s", lib.Arch, c.Name, p.Name)
					continue
				}
				if arc.From != p.Name || arc.To != c.Out.Name {
					t.Errorf("%s %s arc endpoints %s->%s", lib.Arch, c.Name, arc.From, arc.To)
				}
				if arc.DelayRise.Lookup(20, 1) <= 0 {
					t.Errorf("%s %s: non-positive delay", lib.Arch, c.Name)
				}
			}
		}
	}
}

// Property: delay tables are monotone non-decreasing in load for every arc
// in both libraries.
func TestDelayMonotoneInLoad(t *testing.T) {
	ffet, cfet := libs(t)
	for _, lib := range []*Library{ffet, cfet} {
		for _, c := range lib.Cells() {
			if c.IsSeq() {
				continue
			}
			for _, p := range c.Inputs {
				arc := c.Arc(p.Name)
				prop := func(l1Raw, l2Raw uint16) bool {
					l1 := float64(l1Raw%800)/100 + 0.1
					l2 := float64(l2Raw%800)/100 + 0.1
					if l1 > l2 {
						l1, l2 = l2, l1
					}
					return arc.DelayFall.Lookup(20, l1) <= arc.DelayFall.Lookup(20, l2)+1e-9 &&
						arc.DelayRise.Lookup(20, l1) <= arc.DelayRise.Lookup(20, l2)+1e-9
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
					t.Errorf("%s %s arc %s: %v", lib.Arch, c.Name, p.Name, err)
				}
			}
		}
	}
}

// Property: larger drives are faster at the same absolute load.
func TestDriveStrengthOrdering(t *testing.T) {
	ffet, _ := libs(t)
	for _, base := range []string{"INV", "BUF"} {
		cs := ffet.ByBase(base)
		for i := 1; i < len(cs); i++ {
			lo, hi := cs[i-1], cs[i]
			load := 4.0
			dLo := lo.Arc("I").DelayFall.Lookup(20, load)
			dHi := hi.Arc("I").DelayFall.Lookup(20, load)
			if dHi >= dLo {
				t.Errorf("%s: D%d (%.2fps) not faster than D%d (%.2fps) at %v fF",
					base, hi.Drive, dHi, lo.Drive, dLo, load)
			}
		}
	}
}

func TestFO4Plausibility(t *testing.T) {
	// A 5 nm-class inverter FO4 should land in single-digit to low-teens ps.
	ffet, _ := libs(t)
	inv := ffet.MustCell("INVD1")
	fo4 := inv.Arc("I").DelayFall.Lookup(10, 4*inv.InputCap("I"))
	if fo4 < 2 || fo4 > 25 {
		t.Errorf("FO4 = %.2f ps outside plausible band [2,25]", fo4)
	}
}

func TestWriteLiberty(t *testing.T) {
	ffet, _ := libs(t)
	var buf strings.Builder
	if err := WriteLiberty(&buf, ffet); err != nil {
		t.Fatalf("WriteLiberty: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"library (FFET_5nm_3.5T)",
		"cell (INVD1)",
		"cell (DFFD1)",
		"related_pin : \"I\"",
		"timing_sense : negative_unate",
		"clocked_on : \"CP\"",
		"cell_rise (tpl_5x5)",
		"internal_power ()",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("liberty output missing %q", want)
		}
	}
	// Every cell appears exactly once.
	for _, c := range ffet.Cells() {
		if n := strings.Count(text, "cell ("+c.Name+")"); n != 1 {
			t.Errorf("cell %s appears %d times", c.Name, n)
		}
	}
}
