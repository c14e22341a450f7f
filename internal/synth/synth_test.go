package synth

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.NewFFET())

func fanoutNetlist(t *testing.T, fanout int) *netlist.Netlist {
	t.Helper()
	nl := netlist.New("fan", lib)
	nl.AddPort("a", netlist.In)
	nl.MustAdd("drv", lib.MustCell("INVD1"), map[string]string{"I": "a", "ZN": "big"})
	for i := 0; i < fanout; i++ {
		nl.MustAdd(fmt.Sprintf("s%d", i), lib.MustCell("INVD1"),
			map[string]string{"I": "big", "ZN": fmt.Sprintf("o%d", i)})
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestBufferInsertionCapsFanout(t *testing.T) {
	nl := fanoutNetlist(t, 60)
	res, err := Run(nl, DefaultOptions(1.0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := res.Netlist
	if err := out.Validate(); err != nil {
		t.Fatalf("result invalid: %v", err)
	}
	if res.BuffersAdded == 0 {
		t.Fatal("expected buffers on a fanout-60 net")
	}
	for _, n := range out.Nets {
		if n.IsClock {
			continue
		}
		if n.Fanout() > 8 {
			t.Errorf("net %s fanout %d exceeds max 8", n.Name, n.Fanout())
		}
	}
	// All 60 original sinks must still be combinationally reachable.
	levels, cyclic := out.TopoLevels()
	if len(cyclic) > 0 {
		t.Fatal("buffering created cycles")
	}
	if len(levels) < 2 {
		t.Error("expected buffer levels in the graph")
	}
}

func TestSizingRespondsToTarget(t *testing.T) {
	core, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(core, DefaultOptions(0.4))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(core, DefaultOptions(3.0))
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.AreaUm2 > slow.AreaUm2) {
		t.Errorf("3 GHz target area (%.1f µm²) should exceed 0.4 GHz area (%.1f µm²)",
			fast.AreaUm2, slow.AreaUm2)
	}
	if fast.Upsized <= slow.Upsized {
		t.Errorf("fast target should upsize more cells (%d vs %d)",
			fast.Upsized, slow.Upsized)
	}
	if err := fast.Netlist.Validate(); err != nil {
		t.Fatalf("sized netlist invalid: %v", err)
	}
}

func TestSynthesisPreservesFunction(t *testing.T) {
	// Build the reduced core, synthesize at a high target, and check the
	// sized netlist still executes a program correctly (sizing must be
	// purely electrical).
	core, info, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(core, DefaultOptions(2.0))
	if err != nil {
		t.Fatal(err)
	}
	imem, dmem := riscv.NewMemory(), riscv.NewMemory()
	prog := []uint32{
		riscv.ADDI(1, 0, 21),
		riscv.ADDI(2, 0, 2),
		riscv.ADD(3, 1, 1),
		riscv.SLL(4, 1, 2),
	}
	imem.LoadProgram(0, prog)
	h, err := riscv.NewHarness(res.Netlist, info, imem, dmem)
	if err != nil {
		t.Fatalf("harness on synthesized netlist: %v", err)
	}
	h.Reset()
	h.Run(len(prog))
	if got := h.Reg(3); got != 42 {
		t.Errorf("x3 = %d, want 42 after synthesis", got)
	}
	if got := h.Reg(4); got != 84 {
		t.Errorf("x4 = %d, want 84 after synthesis", got)
	}
}

func TestClockNetNotBuffered(t *testing.T) {
	nl := netlist.New("clk", lib)
	nl.AddPort("clk", netlist.In)
	nl.AddPort("d", netlist.In)
	nl.MarkClock("clk")
	prev := "d"
	for i := 0; i < 30; i++ {
		q := fmt.Sprintf("q%d", i)
		nl.MustAdd(fmt.Sprintf("ff%d", i), lib.MustCell("DFFD1"),
			map[string]string{"D": prev, "CP": "clk", "Q": q})
		prev = q
	}
	res, err := Run(nl, DefaultOptions(1.0))
	if err != nil {
		t.Fatal(err)
	}
	ck := res.Netlist.Net("clk")
	if ck.Fanout() != 30 {
		t.Errorf("clock fanout = %d, want 30 untouched (CTS owns the clock)", ck.Fanout())
	}
}

func TestInvalidTargetRejected(t *testing.T) {
	nl := fanoutNetlist(t, 3)
	if _, err := Run(nl, DefaultOptions(0)); err == nil {
		t.Fatal("zero target must be rejected")
	}
}

// TestMaxFanoutBelowTwoRejected: the options are used as given, and a
// fanout bound below 2 would buffer a net forever.
func TestMaxFanoutBelowTwoRejected(t *testing.T) {
	nl := fanoutNetlist(t, 3)
	opt := DefaultOptions(1.0)
	opt.MaxFanout = 1
	if _, err := Run(nl, opt); err == nil {
		t.Fatal("max fanout 1 must be rejected")
	}
}

// structure renders a netlist's whole structure in order: every net's
// driver and sinks, every instance's cell, position and pin nets, and
// every port.
func structure(nl *netlist.Netlist) string {
	var b strings.Builder
	for _, n := range nl.Nets {
		fmt.Fprintf(&b, "net %d %s clock=%v driver=%v sinks=%v\n", n.Seq, n.Name, n.IsClock, n.Driver, n.Sinks)
	}
	for _, i := range nl.Instances {
		fmt.Fprintf(&b, "inst %d %s %s %v %v", i.Seq, i.Name, i.Cell.Name, i.Pos, i.Fixed)
		for pi := range i.Cell.NumPins() {
			if n := i.ConnAt(pi); n != nil {
				fmt.Fprintf(&b, " %s=%s", i.Cell.PinName(pi), n.Name)
			}
		}
		b.WriteByte('\n')
	}
	for _, p := range nl.Ports {
		fmt.Fprintf(&b, "port %d %s %v %s %v\n", p.Seq, p.Name, p.Dir, p.Net.Name, p.Pos)
	}
	return b.String()
}

// TestOriginalUntouched: Run only reads its input, as every synthesis
// root of a sweep shares the suite's one netlist. Concurrent runs on one
// input leave its whole structure unchanged, and each equals a serial
// run. CI runs this package under the race detector.
func TestOriginalUntouched(t *testing.T) {
	core, _, err := riscv.Generate(lib, riscv.Config{Name: "c", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, nl := range []*netlist.Netlist{fanoutNetlist(t, 60), core} {
		before := structure(nl)
		serial, err := Run(nl, DefaultOptions(2.0))
		if err != nil {
			t.Fatal(err)
		}
		if serial.BuffersAdded == 0 {
			t.Fatalf("%s: no buffers inserted, so the copy is never mutated", nl.Name)
		}
		want := structure(serial.Netlist)
		const workers = 4
		got := make([]*Result, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w], errs[w] = Run(nl, DefaultOptions(2.0))
			}()
		}
		wg.Wait()
		if structure(nl) != before {
			t.Fatalf("%s: Run mutated its input netlist", nl.Name)
		}
		for w, res := range got {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			if structure(res.Netlist) != want || res.Depth != serial.Depth ||
				res.BuffersAdded != serial.BuffersAdded || res.Upsized != serial.Upsized ||
				res.AreaUm2 != serial.AreaUm2 {
				t.Errorf("%s: concurrent run %d differs from the serial run", nl.Name, w)
			}
		}
	}
}
