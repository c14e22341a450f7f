package floorplan

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/tech"
)

func TestPlanGeometry(t *testing.T) {
	st := tech.NewFFET()
	// 300 µm² of cells at 75% → 400 µm² core.
	p, err := New(st, 300_000_000, 0.75, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	got := p.CoreAreaUm2()
	if got < 395 || got > 410 {
		t.Errorf("core area = %.1f µm², want ~400", got)
	}
	if len(p.Rows) == 0 {
		t.Fatal("no rows")
	}
	rowH := st.CellHeightNm()
	for i, r := range p.Rows {
		if r.Y != int64(i)*rowH {
			t.Errorf("row %d at y=%d, want %d", i, r.Y, int64(i)*rowH)
		}
		if r.X0 != 0 || r.X1 != p.Core.Hi.X {
			t.Errorf("row %d span [%d,%d]", i, r.X0, r.X1)
		}
	}
	if u := p.RealUtilization(); u < 0.70 || u > 0.76 {
		t.Errorf("real utilization = %.3f, want ≈0.75 (slightly below from snapping)", u)
	}
}

func TestAspectRatio(t *testing.T) {
	st := tech.NewCFET()
	p, err := New(st, 200_000_000, 0.7, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(p.Core.H()) / float64(p.Core.W())
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("aspect = %.2f, want ≈2", ratio)
	}
}

func TestInvalidInputs(t *testing.T) {
	st := tech.NewFFET()
	if _, err := New(st, 1000, 0, 1); err == nil {
		t.Error("zero utilization must fail")
	}
	if _, err := New(st, 1000, 1.2, 1); err == nil {
		t.Error("utilization > 1 must fail")
	}
	if _, err := New(st, 0, 0.5, 1); err == nil {
		t.Error("empty design must fail")
	}
	for _, aspect := range []float64{0, -1, math.NaN()} {
		if _, err := New(st, 1000, 0.5, aspect); err == nil {
			t.Errorf("aspect %v must fail", aspect)
		}
	}
}

func TestRowAt(t *testing.T) {
	st := tech.NewFFET()
	p, _ := New(st, 100_000_000, 0.8, 1.0)
	r := p.RowAt(0)
	if r == nil || r.Index != 0 {
		t.Fatalf("RowAt(0) = %+v", r)
	}
	r = p.RowAt(st.CellHeightNm())
	if r == nil || r.Index != 1 {
		t.Errorf("RowAt(rowH) = %+v, want row 1", r)
	}
	if p.RowAt(-5) != nil {
		t.Error("negative y must return nil")
	}
	if p.RowAt(p.Core.Hi.Y+1000) != nil {
		t.Error("beyond-core y must return nil")
	}
}

func TestPlaceIOPorts(t *testing.T) {
	st := tech.NewFFET()
	lib := cell.NewLibrary(st)
	nl := netlist.New("io", lib)
	for _, n := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		nl.AddPort(n, netlist.In)
	}
	p, _ := New(st, 100_000_000, 0.8, 1.0)
	p.PlaceIOPorts(nl)
	onBoundary := func(pt int64) bool { return true }
	_ = onBoundary
	seen := make(map[[2]int64]bool)
	for _, port := range nl.Ports {
		pos := port.Pos
		onEdge := pos.X == 0 || pos.Y == 0 || pos.X == p.Core.Hi.X || pos.Y == p.Core.Hi.Y
		if !onEdge {
			t.Errorf("port %s at %v not on boundary", port.Name, pos)
		}
		seen[[2]int64{pos.X, pos.Y}] = true
	}
	if len(seen) < len(nl.Ports) {
		t.Errorf("ports share positions: %d unique of %d", len(seen), len(nl.Ports))
	}
}

// Property: the snapped core always has at least the requested area, and
// utilization never exceeds the request.
func TestCoreAreaProperty(t *testing.T) {
	st := tech.NewFFET()
	prop := func(areaRaw uint32, utilRaw, aspectRaw uint8) bool {
		area := int64(areaRaw%500_000_000) + 1_000_000
		util := 0.3 + float64(utilRaw%60)/100.0
		aspect := 0.5 + float64(aspectRaw%30)/10.0
		p, err := New(st, area, util, aspect)
		if err != nil {
			return false
		}
		return p.RealUtilization() <= util+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
