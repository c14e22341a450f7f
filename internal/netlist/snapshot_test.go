package netlist

import (
	"testing"

	"repro/internal/geom"
)

// sameStructure asserts b is an exact structural copy of a (same order,
// Seq ids, connectivity and physical state) sharing no mutable objects.
func sameStructure(t *testing.T, a, b *Netlist) {
	t.Helper()
	if a.Name != b.Name || a.Lib != b.Lib {
		t.Fatalf("header differs: %s/%p vs %s/%p", a.Name, a.Lib, b.Name, b.Lib)
	}
	if len(a.Instances) != len(b.Instances) || len(a.Nets) != len(b.Nets) || len(a.Ports) != len(b.Ports) {
		t.Fatalf("sizes differ: %d/%d/%d vs %d/%d/%d",
			len(a.Instances), len(a.Nets), len(a.Ports),
			len(b.Instances), len(b.Nets), len(b.Ports))
	}
	refEq := func(x, y PinRef) bool {
		if (x.Inst == nil) != (y.Inst == nil) || (x.Port == nil) != (y.Port == nil) || x.Pin != y.Pin {
			return false
		}
		if x.Inst != nil && (x.Inst.Name != y.Inst.Name || x.Inst.Seq != y.Inst.Seq) {
			return false
		}
		if x.Port != nil && x.Port.Name != y.Port.Name {
			return false
		}
		return true
	}
	for i, an := range a.Nets {
		bn := b.Nets[i]
		if an == bn {
			t.Fatalf("net %s shared between copies", an.Name)
		}
		if an.Name != bn.Name || an.Seq != bn.Seq || an.IsClock != bn.IsClock {
			t.Fatalf("net %d differs: %+v vs %+v", i, an, bn)
		}
		if !refEq(an.Driver, bn.Driver) {
			t.Fatalf("net %s driver differs: %v vs %v", an.Name, an.Driver, bn.Driver)
		}
		if len(an.Sinks) != len(bn.Sinks) {
			t.Fatalf("net %s sink count differs", an.Name)
		}
		for j := range an.Sinks {
			if !refEq(an.Sinks[j], bn.Sinks[j]) {
				t.Fatalf("net %s sink %d differs (order must be preserved)", an.Name, j)
			}
		}
	}
	for i, ai := range a.Instances {
		bi := b.Instances[i]
		if ai == bi {
			t.Fatalf("instance %s shared between copies", ai.Name)
		}
		if ai.Name != bi.Name || ai.Seq != bi.Seq || ai.Cell != bi.Cell ||
			ai.Pos != bi.Pos || ai.Fixed != bi.Fixed {
			t.Fatalf("instance %d differs: %+v vs %+v", i, ai, bi)
		}
		for j := range ai.conns {
			an, bn := ai.conns[j], bi.conns[j]
			if (an == nil) != (bn == nil) {
				t.Fatalf("instance %s pin %d connectivity differs", ai.Name, j)
			}
			if an != nil && (an.Name != bn.Name || bn != b.Nets[an.Seq]) {
				t.Fatalf("instance %s pin %d bound to wrong net copy", ai.Name, j)
			}
		}
	}
	for i, ap := range a.Ports {
		bp := b.Ports[i]
		if ap == bp {
			t.Fatalf("port %s shared between copies", ap.Name)
		}
		if ap.Name != bp.Name || ap.Dir != bp.Dir || ap.Seq != bp.Seq || ap.Pos != bp.Pos {
			t.Fatalf("port %d differs: %+v vs %+v", i, ap, bp)
		}
		if bp.Net != b.Nets[ap.Net.Seq] {
			t.Fatalf("port %s bound to wrong net copy", ap.Name)
		}
	}
}

func TestSnapshotExactCopy(t *testing.T) {
	nl := buildSmall(t)
	// Give the netlist physical state the copy must keep.
	nl.Instances[0].Pos = geom.Pt(1234, 567)
	nl.Instances[1].Fixed = true
	nl.Ports[2].Pos = geom.Pt(9, 8)

	snap := nl.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}
	sameStructure(t, nl, snap)
	// Name lookups must work on the copy.
	if snap.Instance("u1") == nil || snap.Net("n1") == nil || snap.Port("a") == nil {
		t.Fatal("snapshot lookup maps not rebuilt")
	}
	if snap.ClockNet() == nil || snap.ClockNet().Name != "clk" {
		t.Fatal("clock flag lost")
	}
}

func TestSnapshotIndependence(t *testing.T) {
	nl := buildSmall(t)
	snap := nl.Snapshot()

	// Mutate the copy the way placement and CTS do: move cells, add a
	// buffer instance, reconnect a sink.
	snap.Instances[0].Pos = geom.Pt(777, 777)
	buf := snap.MustAdd("ctsbuf_x", testLib.MustCell("BUFD1"), map[string]string{
		"I": "n1", "Z": "bufnet",
	})
	if err := snap.Reconnect(snap.Instance("u2"), "I", snap.Net("bufnet")); err != nil {
		t.Fatal(err)
	}
	_ = buf

	if nl.Instances[0].Pos == (geom.Pt(777, 777)) {
		t.Error("mutating snapshot moved original instance")
	}
	if nl.Instance("ctsbuf_x") != nil || nl.Net("bufnet") != nil {
		t.Error("snapshot mutation leaked new objects into original")
	}
	if got := nl.Net("n1").Fanout(); got != 1 {
		t.Errorf("original n1 fanout = %d after snapshot reconnect, want 1", got)
	}
	if err := nl.Validate(); err != nil {
		t.Errorf("original invalid after snapshot mutation: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("snapshot invalid after mutation: %v", err)
	}

	// And the reverse direction: mutating the original leaves the copy alone.
	snap2 := nl.Snapshot()
	nl.Instances[1].Pos = geom.Pt(42, 42)
	if snap2.Instances[1].Pos == (geom.Pt(42, 42)) {
		t.Error("mutating original moved snapshot instance")
	}
}
