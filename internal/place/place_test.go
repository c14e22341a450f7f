package place

import (
	"testing"

	"repro/internal/cell"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/powerplan"
	"repro/internal/riscv"
	"repro/internal/tech"
)

var lib = cell.NewLibrary(tech.NewFFET())

func smallDesign(t testing.TB) *netlist.Netlist {
	t.Helper()
	nl, _, err := riscv.Generate(lib, riscv.Config{Name: "p", Registers: 8})
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestPlaceLegalizesRISCVCore(t *testing.T) {
	nl := smallDesign(t)
	fp, err := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pp := powerplan.Plan(fp)
	res, err := Place(nl, fp, pp.Blockages, DefaultOptions())
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := CheckLegal(nl, fp, pp.Blockages); err != nil {
		t.Fatalf("CheckLegal: %v", err)
	}
	if res.HPWLNm <= 0 {
		t.Error("zero HPWL")
	}
	t.Logf("placed %d cells, HPWL = %.1f µm", res.Legalized, float64(res.HPWLNm)/1000)
}

func TestPlacementQualityBeatsRandom(t *testing.T) {
	nl := smallDesign(t)
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.65, 1.0)
	pp := powerplan.Plan(fp)

	// Random-only placement: skip attraction by using zero iterations via
	// Global with 1 iteration then measuring, against the full flow.
	opt := DefaultOptions()
	Global(nl, fp, Options{Seed: 9, GlobalIters: 1, BinCount: 24, MaxAttractFanout: 2})
	if err := Legalize(nl, fp, pp.Blockages); err != nil {
		t.Fatal(err)
	}
	randomHPWL := HPWL(nl, fp)

	nl2 := smallDesign(t)
	res, err := Place(nl2, fp, pp.Blockages, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWLNm >= randomHPWL {
		t.Errorf("optimized HPWL %.0f should beat near-random %.0f",
			float64(res.HPWLNm), float64(randomHPWL))
	}
}

func TestLegalizeRespectsBlockages(t *testing.T) {
	nl := smallDesign(t)
	// Very tight floorplan with blockages: every placement must avoid them.
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.80, 1.0)
	pp := powerplan.Plan(fp)
	if len(pp.Blockages) == 0 {
		t.Fatal("no blockages generated")
	}
	if _, err := Place(nl, fp, pp.Blockages, DefaultOptions()); err != nil {
		t.Fatalf("80%% should legalize: %v", err)
	}
	if err := CheckLegal(nl, fp, pp.Blockages); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeFailsAboveTapCap(t *testing.T) {
	nl := smallDesign(t)
	// 97% utilization with ~12.5% of sites blocked cannot legalize.
	fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.97, 1.0)
	pp := powerplan.Plan(fp)
	_, err := Place(nl, fp, pp.Blockages, DefaultOptions())
	if err == nil {
		t.Fatal("97% utilization must fail legalization against tap cells")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		nl := smallDesign(t)
		fp, _ := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
		pp := powerplan.Plan(fp)
		res, err := Place(nl, fp, pp.Blockages, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWLNm
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("placement not deterministic: %d vs %d", a, b)
	}
}

// TestAllocate covers the slot allocation Legalize runs on every row:
// probe picks the site-aligned slot closest to the target, and take
// splits the free interval around it.
func TestAllocate(t *testing.T) {
	free := []geom.Interval{{Lo: 0, Hi: 1000}}
	x, cost, ok := probe(free, 400, 100, 50)
	if !ok || x != 400 || cost != 0 {
		t.Fatalf("probe = %d,%d,%v want 400,0,true", x, cost, ok)
	}
	take(&free, x, 100)
	if len(free) != 2 || free[0] != (geom.Interval{Lo: 0, Hi: 400}) || free[1] != (geom.Interval{Lo: 500, Hi: 1000}) {
		t.Errorf("free after take = %v", free)
	}
	// Slot too small.
	small := []geom.Interval{{Lo: 0, Hi: 80}}
	if _, _, ok := probe(small, 0, 100, 50); ok {
		t.Error("probe found a slot in a too-small interval")
	}
	// Snapped to site grid.
	free2 := []geom.Interval{{Lo: 130, Hi: 1000}}
	x2, _, ok := probe(free2, 0, 100, 50)
	if !ok || x2%50 != 0 || x2 < 130 {
		t.Errorf("probe snapped = %d,%v (must be on 50nm sites >= 150)", x2, ok)
	}
	take(&free2, x2, 100)
	if len(free2) != 2 || free2[0].Hi != x2 || free2[1].Lo != x2+100 {
		t.Errorf("free after snapped take = %v", free2)
	}
}
