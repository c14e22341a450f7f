package route

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

func ffetFrontLayers(n int) []tech.Layer {
	st := tech.NewFFET()
	return st.SideRoutingLayers(tech.Pattern{Front: n, Back: n}, tech.Front)
}

func mkNet(seq int, name string, pts ...geom.Point) *Net {
	n := &Net{Name: name, Seq: seq}
	for i, p := range pts {
		n.Pins = append(n.Pins, Pin{
			ID:     netlist.InstPinID(i, 0),
			At:     p,
			Driver: i == 0,
			CapFF:  0.2,
		})
	}
	return n
}

func TestTwoPinRoute(t *testing.T) {
	core := geom.R(0, 0, 10000, 10000)
	r, err := NewRouter(core, tech.Front, ffetFrontLayers(12), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	net := mkNet(0, "n1", geom.Pt(500, 500), geom.Pt(8500, 6500))
	res, err := r.Run([]*Net{net})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree(0)
	if tr == nil {
		t.Fatal("no tree")
	}
	// Minimum wirelength = Manhattan distance in gcells.
	wantMin := int64(8 + 6)
	gotCells := tr.WirelenNm / 1000
	if gotCells < wantMin || gotCells > wantMin+4 {
		t.Errorf("route length = %d gcells, want ~%d (Manhattan)", gotCells, wantMin)
	}
	if res.DRVs != 0 {
		t.Errorf("DRVs = %d on an empty grid", res.DRVs)
	}
	// Tree must connect both pins to the driver node.
	if len(tr.PinNode) != 2 {
		t.Fatalf("pin nodes = %d", len(tr.PinNode))
	}
	assertConnected(t, tr)
}

func assertConnected(t *testing.T, tr *Tree) {
	t.Helper()
	adj := make(map[int][]int)
	for _, e := range tr.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := map[int]bool{tr.DriverNode: true}
	stack := []int{tr.DriverNode}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for i, node := range tr.PinNode {
		if !seen[int(node)] {
			t.Errorf("pin %v (pos %d) node %d unreachable from driver", tr.Pins[i].ID, i, node)
		}
	}
}

func TestMultiPinSteinerish(t *testing.T) {
	core := geom.R(0, 0, 20000, 20000)
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(12), DefaultOptions())
	net := mkNet(0, "fan",
		geom.Pt(10000, 10000),
		geom.Pt(2000, 2000), geom.Pt(18000, 2000),
		geom.Pt(2000, 18000), geom.Pt(18000, 18000))
	res, err := r.Run([]*Net{net})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree(0)
	assertConnected(t, tr)
	// Tree sharing must beat 4 independent 2-pin routes.
	independent := int64(4 * (8 + 8))
	if tr.WirelenNm/1000 >= independent {
		t.Errorf("tree length %d gcells >= unshared %d", tr.WirelenNm/1000, independent)
	}
}

func TestCongestionForcesDetours(t *testing.T) {
	// Narrow capacity: 2 layers only, many parallel nets through one row.
	core := geom.R(0, 0, 30000, 4000)
	opt := DefaultOptions()
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(2), opt)
	var nets []*Net
	for i := 0; i < 260; i++ {
		y := int64(500 + (i%4)*1000)
		nets = append(nets, mkNet(i, fmt.Sprintf("n%d", i),
			geom.Pt(500, y), geom.Pt(29500, y)))
	}
	res, err := r.Run(nets)
	if err != nil {
		t.Fatal(err)
	}
	minWL := int64(len(nets)) * 29
	if res.WirelenNm/1000 <= minWL {
		t.Errorf("congestion should force detours: %d <= %d gcells",
			res.WirelenNm/1000, minWL)
	}
	t.Logf("260 nets, 2 layers: WL=%d gcells (min %d), DRVs=%d",
		res.WirelenNm/1000, minWL, res.DRVs)
}

func TestMoreLayersResolveCongestion(t *testing.T) {
	core := geom.R(0, 0, 30000, 3000)
	build := func(layers int) int {
		r, _ := NewRouter(core, tech.Front, ffetFrontLayers(layers), DefaultOptions())
		var nets []*Net
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 160; i++ {
			x1 := rng.Int63n(30000)
			x2 := rng.Int63n(30000)
			y1 := rng.Int63n(3000)
			y2 := rng.Int63n(3000)
			nets = append(nets, mkNet(i, fmt.Sprintf("n%d", i),
				geom.Pt(x1, y1), geom.Pt(x2, y2)))
		}
		res, err := r.Run(nets)
		if err != nil {
			t.Fatal(err)
		}
		return res.DRVs
	}
	few := build(2)
	many := build(12)
	if many > few {
		t.Errorf("12 layers (%d DRVs) should not be worse than 2 layers (%d DRVs)", many, few)
	}
	if few == 0 {
		t.Log("note: even 2 layers routed cleanly at this load")
	}
}

func TestLayerAssignmentByNetLength(t *testing.T) {
	core := geom.R(0, 0, 60000, 60000)
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(12), DefaultOptions())
	short := mkNet(0, "short", geom.Pt(500, 500), geom.Pt(2500, 500))
	long := mkNet(1, "long", geom.Pt(500, 1500), geom.Pt(58000, 55000))
	res, err := r.Run([]*Net{short, long})
	if err != nil {
		t.Fatal(err)
	}
	maxIdx := func(tr *Tree) int {
		m := 0
		for _, e := range tr.Edges {
			if e.Layer.Index > m {
				m = e.Layer.Index
			}
		}
		return m
	}
	si := maxIdx(res.Tree(0))
	li := maxIdx(res.Tree(1))
	if si > 4 {
		t.Errorf("short net on M%d, want low metal", si)
	}
	if li < 9 {
		t.Errorf("long net on M%d, want upper metal", li)
	}
}

func TestReducedPatternClampsLayers(t *testing.T) {
	core := geom.R(0, 0, 60000, 60000)
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(3), DefaultOptions())
	long := mkNet(1, "long", geom.Pt(500, 1500), geom.Pt(58000, 55000))
	res, err := r.Run([]*Net{long})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Tree(1).Edges {
		if e.Layer.Index > 3 {
			t.Fatalf("edge on %s exceeds FM3 pattern", e.Layer.Name)
		}
	}
}

func TestPinBlockageReducesCapacity(t *testing.T) {
	core := geom.R(0, 0, 8000, 8000)
	// Dense pins in one gcell, none elsewhere.
	var nets []*Net
	for i := 0; i < 30; i++ {
		nets = append(nets, mkNet(i, fmt.Sprintf("p%d", i),
			geom.Pt(4100, 4100), geom.Pt(4300+int64(i), 4500)))
	}
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(12), DefaultOptions())
	r.applyPinBlockage(nets)
	g := r.g
	x, y := r.cellOf(geom.Pt(4100, 4100))
	full := g.cap[g.hIdx(0, 0)]
	local := g.cap[g.hIdx(x, y)]
	if !(local < full) {
		t.Errorf("pin-dense gcell capacity %v should be below clean %v", local, full)
	}
}

func TestDriverCountValidation(t *testing.T) {
	core := geom.R(0, 0, 8000, 8000)
	r, _ := NewRouter(core, tech.Front, ffetFrontLayers(12), DefaultOptions())
	bad := &Net{Name: "bad", Pins: []Pin{
		{ID: netlist.InstPinID(0, 0), At: geom.Pt(0, 0)},
		{ID: netlist.InstPinID(1, 0), At: geom.Pt(100, 100)},
	}}
	if _, err := r.Run([]*Net{bad}); err == nil {
		t.Fatal("net without driver must be rejected")
	}
}

// TestNewRouterRejectsGCell: options without a positive gcell edge are
// refused, not replaced by the defaults.
func TestNewRouterRejectsGCell(t *testing.T) {
	core := geom.R(0, 0, 8000, 8000)
	for _, opt := range []Options{{CapacityFactor: 2}, {GCellNm: -1000}} {
		if _, err := NewRouter(core, tech.Front, ffetFrontLayers(12), opt); err == nil {
			t.Errorf("NewRouter(%+v) accepted a gcell edge of %d nm", opt, opt.GCellNm)
		}
	}
}

func TestDeterministicRouting(t *testing.T) {
	run := func() int64 {
		core := geom.R(0, 0, 20000, 20000)
		r, _ := NewRouter(core, tech.Front, ffetFrontLayers(4), DefaultOptions())
		rng := rand.New(rand.NewSource(7))
		var nets []*Net
		for i := 0; i < 100; i++ {
			nets = append(nets, mkNet(i, fmt.Sprintf("n%d", i),
				geom.Pt(rng.Int63n(20000), rng.Int63n(20000)),
				geom.Pt(rng.Int63n(20000), rng.Int63n(20000))))
		}
		res, err := r.Run(nets)
		if err != nil {
			t.Fatal(err)
		}
		return res.WirelenNm
	}
	if a, b := run(), run(); a != b {
		t.Errorf("routing not deterministic: %d vs %d", a, b)
	}
}
