package extract

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/route"
	"repro/internal/tech"
)

var st = tech.NewFFET()

// lineTree builds a 3-node path: driver - n1 - n2, 1µm per edge on FM2.
// Pin positions: 0 = driver, 1 = near sink, 2 = far sink.
func lineTree(layer tech.Layer) *route.Tree {
	return &route.Tree{
		Name:  "n",
		Nodes: []geom.Point{geom.Pt(0, 0), geom.Pt(1000, 0), geom.Pt(2000, 0)},
		Edges: []route.TreeEdge{
			{From: 0, To: 1, Layer: layer, LenNm: 1000},
			{From: 1, To: 2, Layer: layer, LenNm: 1000},
		},
		PinNode:    []int32{0, 1, 2},
		DriverNode: 0,
		WirelenNm:  2000,
	}
}

// frontPos packs a frontside sink position; backPos the backside.
func frontPos(pos int32) int32 { return pos << 1 }
func backPos(pos int32) int32  { return pos<<1 | 1 }

// twoSinks is the canonical dense sink table for lineTree nets:
// index 0 = near sink (pin position 1), index 1 = far sink (position 2).
func twoSinks() ([]int32, []float64) {
	return []int32{frontPos(1), frontPos(2)}, []float64{0.2, 0.2}
}

func TestElmoreOrdering(t *testing.T) {
	fm2 := st.MustLayer("FM2")
	pos, caps := twoSinks()
	rc := Extract(st, NetInput{
		Name:      "n",
		Front:     lineTree(fm2),
		SinkPos:   pos,
		SinkCapFF: caps,
	}, DefaultOptions())
	if len(rc.ElmorePs) != 2 {
		t.Fatalf("ElmorePs entries = %d, want one per sink", len(rc.ElmorePs))
	}
	if rc.ElmorePs[0] <= 0 {
		t.Fatal("zero Elmore at near sink")
	}
	if !(rc.ElmorePs[1] > rc.ElmorePs[0]) {
		t.Errorf("far sink %.3f must exceed near sink %.3f",
			rc.ElmorePs[1], rc.ElmorePs[0])
	}
	// Total cap: 2µm wire + 2 sinks + stubs.
	wantWire := 2 * fm2.CPerUm
	if rc.WireCapFF < wantWire || rc.WireCapFF > wantWire+0.2 {
		t.Errorf("wire cap = %.3f, want ≈ %.3f", rc.WireCapFF, wantWire)
	}
	if rc.TotalCapFF <= rc.WireCapFF {
		t.Error("total cap must include sink pins")
	}
}

func TestUpperLayerIsFaster(t *testing.T) {
	pos, caps := twoSinks()
	lo := Extract(st, NetInput{Name: "n", Front: lineTree(st.MustLayer("FM2")),
		SinkPos: pos, SinkCapFF: caps}, DefaultOptions())
	hi := Extract(st, NetInput{Name: "n", Front: lineTree(st.MustLayer("FM10")),
		SinkPos: pos, SinkCapFF: caps}, DefaultOptions())
	if !(hi.ElmorePs[1] < lo.ElmorePs[1]) {
		t.Errorf("FM10 (%.3f ps) must beat FM2 (%.3f ps)",
			hi.ElmorePs[1], lo.ElmorePs[1])
	}
}

func TestDualSidedJoinsAtDriver(t *testing.T) {
	fm2, bm2 := st.MustLayer("FM2"), st.MustLayer("BM2")
	front := lineTree(fm2)
	back := lineTree(bm2)
	back.PinNode = []int32{0, 2} // driver, then one sink at the far node
	rc := Extract(st, NetInput{
		Name: "n", Front: front, Back: back,
		SinkPos:   []int32{frontPos(1), frontPos(2), backPos(1)},
		SinkCapFF: []float64{0.2, 0.2, 0.2},
	}, DefaultOptions())
	if len(rc.ElmorePs) != 3 {
		t.Fatalf("sinks extracted = %d, want 3 across both sides", len(rc.ElmorePs))
	}
	for i, d := range rc.ElmorePs {
		if d <= 0 {
			t.Errorf("sink %d Elmore = %.3f, want > 0", i, d)
		}
	}
	if rc.WirelenNm != 4000 {
		t.Errorf("wirelength = %d, want 4000 (both sides)", rc.WirelenNm)
	}
}

func TestUnroutedSinkGetsStub(t *testing.T) {
	rc := Extract(st, NetInput{
		Name:      "n",
		SinkCapFF: []float64{0.3},
	}, DefaultOptions())
	if rc.ElmorePs[0] <= 0 {
		t.Error("unrouted sink needs a stub delay")
	}
}

func TestEscapeCrowdingRaisesDelay(t *testing.T) {
	pos, caps := twoSinks()
	mk := func(crowd float64) float64 {
		tr := lineTree(st.MustLayer("FM2"))
		tr.EscapeCrowding = crowd
		rc := Extract(st, NetInput{Name: "n", Front: tr,
			SinkPos: pos, SinkCapFF: caps}, DefaultOptions())
		return rc.ElmorePs[1]
	}
	if !(mk(1.0) > mk(0.0)) {
		t.Error("pin crowding must increase driver escape delay")
	}
}

// TestExtractIntoReusesStorage pins the dense-database contract: repeated
// ExtractInto on one destination reuses its Elmore backing array and
// produces identical values run to run.
func TestExtractIntoReusesStorage(t *testing.T) {
	pos, caps := twoSinks()
	in := NetInput{Name: "n", Front: lineTree(st.MustLayer("FM2")),
		SinkPos: pos, SinkCapFF: caps}
	x := NewExtractor()
	var rc NetRC
	x.ExtractInto(&rc, st, in, DefaultOptions())
	first := append([]float64(nil), rc.ElmorePs...)
	firstCap := rc.TotalCapFF
	ptr := &rc.ElmorePs[0]
	x.ExtractInto(&rc, st, in, DefaultOptions())
	if &rc.ElmorePs[0] != ptr {
		t.Error("ExtractInto reallocated the Elmore array on reuse")
	}
	if rc.TotalCapFF != firstCap {
		t.Errorf("TotalCapFF drifted on re-extract: %v vs %v", rc.TotalCapFF, firstCap)
	}
	for i := range first {
		if rc.ElmorePs[i] != first[i] {
			t.Errorf("ElmorePs[%d] drifted on re-extract: %v vs %v", i, rc.ElmorePs[i], first[i])
		}
	}
}

func TestSlewDegrade(t *testing.T) {
	if got := SlewDegrade(10, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("no wire -> unchanged slew, got %v", got)
	}
	if !(SlewDegrade(10, 5) > 10) {
		t.Error("wire delay must degrade slew")
	}
}
