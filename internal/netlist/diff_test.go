package netlist

import (
	"slices"
	"testing"
)

func TestDiffIdentical(t *testing.T) {
	a := buildSmall(t)
	b := a.Snapshot()
	d := Diff(a, b)
	if !d.SeqStable || len(d.Resized) != 0 {
		t.Fatalf("identical snapshot: %+v", d)
	}
}

func TestDiffResizeOnly(t *testing.T) {
	a := buildSmall(t)
	b := a.Snapshot()
	u2 := b.Instance("u2")
	if err := b.Resize(u2, testLib.PickDrive("INV", 4)); err != nil {
		t.Fatal(err)
	}
	d := Diff(a, b)
	if !d.SeqStable {
		t.Fatalf("resize pair: %+v", d)
	}
	if !slices.Equal(d.Resized, []int32{int32(u2.Seq)}) {
		t.Fatalf("Resized = %v, want [%d]", d.Resized, u2.Seq)
	}
}

func TestDiffInsertedInstance(t *testing.T) {
	a := buildSmall(t)
	b := a.Snapshot()
	b.MustAdd("ux", testLib.MustCell("INVD1"), map[string]string{
		"I": "n2", "ZN": "nx",
	})
	if d := Diff(a, b); d.SeqStable || len(d.Resized) != 0 {
		t.Fatalf("inserted instance must break the correspondence: %+v", d)
	}
}

func TestDiffRemovedInstance(t *testing.T) {
	a := buildSmall(t)
	a.MustAdd("ux", testLib.MustCell("INVD1"), map[string]string{
		"I": "n2", "ZN": "nx",
	})
	b := buildSmall(t)
	if d := Diff(a, b); d.SeqStable {
		t.Fatalf("removed instance must break the correspondence: %+v", d)
	}
}

func TestDiffRewired(t *testing.T) {
	a := buildSmall(t)
	b := a.Snapshot()
	if err := b.Reconnect(b.Instance("u2"), "I", b.EnsureNet("n2b")); err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, b); d.SeqStable {
		t.Fatalf("rewire must break the correspondence: %+v", d)
	}
}
