package cts

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/floorplan"
	"repro/internal/place"
	"repro/internal/powerplan"
	"repro/internal/riscv"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.NewFFET())

func TestCTSBuildsBalancedTree(t *testing.T) {
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	place.Global(nl, fp, place.DefaultOptions())
	flops := len(nl.Flops())

	res, err := Run(nl, fp, DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid after CTS: %v", err)
	}
	if res.Buffers == 0 {
		t.Fatal("no clock buffers inserted")
	}
	// Clock net now drives only the root buffer.
	if got := nl.ClockNet().Fanout(); got != 1 {
		t.Errorf("clock net fanout = %d, want 1 (root buffer only)", got)
	}
	// Every flop got an arrival, dense over the post-CTS instance list.
	if res.Sinks != flops {
		t.Errorf("clock sinks = %d, want %d flops", res.Sinks, flops)
	}
	if len(res.ArrivalPs) != len(nl.Instances) {
		t.Errorf("arrival table spans %d instances, want %d", len(res.ArrivalPs), len(nl.Instances))
	}
	for _, ff := range nl.Flops() {
		if a := res.ArrivalPs[ff.Seq]; a <= 0 || a > 500 {
			t.Errorf("flop %s arrival = %.1f ps implausible", ff.Name, a)
		}
	}
	// Balanced bisection keeps skew well below insertion delay.
	if res.SkewPs < 0 {
		t.Error("negative skew")
	}
	if res.SkewPs > res.MeanInsertionPs {
		t.Errorf("skew %.1f ps exceeds mean insertion %.1f ps — tree unbalanced",
			res.SkewPs, res.MeanInsertionPs)
	}
	// Leaf fanout constraint.
	for _, n := range nl.Nets {
		count := 0
		for _, s := range n.Sinks {
			if !s.IsPort() && s.Inst.Cell.IsSeq() && s.Pin == "CP" {
				count++
			}
		}
		if count > DefaultOptions().MaxLeafFanout {
			t.Errorf("net %s drives %d CP pins, max %d", n.Name, count, DefaultOptions().MaxLeafFanout)
		}
	}
	t.Logf("CTS: %d buffers, depth %d, skew %.2f ps, insertion %.2f ps",
		res.Buffers, res.Depth, res.SkewPs, res.MeanInsertionPs)
}

func TestCTSThenLegalize(t *testing.T) {
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.65, 1.0)
	pp := powerplan.Plan(fp)
	place.Global(nl, fp, place.DefaultOptions())
	if _, err := Run(nl, fp, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := place.Legalize(nl, fp, pp.Blockages); err != nil {
		t.Fatalf("legalization after CTS: %v", err)
	}
	if err := place.CheckLegal(nl, fp, pp.Blockages); err != nil {
		t.Fatal(err)
	}
}

func TestCTSRequiresClock(t *testing.T) {
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	nl.ClockNet().IsClock = false
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if _, err := Run(nl, fp, DefaultOptions()); err == nil {
		t.Fatal("CTS without a clock must fail")
	}
}

// TestCTSRejectsZeroLeafFanout: the options are used as given, and a
// leaf fanout below 1 would split a one-sink cluster forever.
func TestCTSRejectsZeroLeafFanout(t *testing.T) {
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if _, err := Run(nl, fp, Options{BufferDrive: 4}); err == nil {
		t.Fatal("CTS with a zero leaf fanout must fail")
	}
}
