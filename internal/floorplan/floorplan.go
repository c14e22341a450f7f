// Package floorplan sizes the core area from target utilization and aspect
// ratio and generates placement rows, the first stage of the paper's
// physical implementation flow (Fig. 7).
package floorplan

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Row is one placement row spanning the core horizontally.
type Row struct {
	Index int
	Y     int64 // bottom edge
	X0    int64
	X1    int64
}

// SitesX returns the number of CPP sites in the row.
func (r Row) SitesX(cppNm int64) int { return int((r.X1 - r.X0) / cppNm) }

// Plan is a sized floorplan.
type Plan struct {
	Stack       *tech.Stack
	Core        geom.Rect
	Rows        []Row
	Utilization float64 // requested cell-area / core-area
	AspectRatio float64 // height / width
	CellAreaNm2 int64
}

// New computes a floorplan for the given total standard-cell area.
// Utilization must be in (0, 1]; aspect is core height / width (1 = square)
// and must be positive.
func New(stack *tech.Stack, cellAreaNm2 int64, utilization, aspect float64) (*Plan, error) {
	if utilization <= 0 || utilization > 1 {
		return nil, fmt.Errorf("floorplan: utilization %.3f out of (0,1]", utilization)
	}
	if !(aspect > 0) {
		return nil, fmt.Errorf("floorplan: aspect ratio %v must be positive", aspect)
	}
	if cellAreaNm2 <= 0 {
		return nil, fmt.Errorf("floorplan: empty design")
	}
	coreArea := float64(cellAreaNm2) / utilization
	w := math.Sqrt(coreArea / aspect)
	h := coreArea / w

	rowH := stack.CellHeightNm()
	cpp := stack.CPPNm
	// Snap up so the snapped core never drops below the target area.
	wNm := geom.SnapDown(int64(w), 0, cpp) + cpp
	hRows := int64(math.Ceil(h / float64(rowH)))
	if hRows < 1 {
		hRows = 1
	}
	hNm := hRows * rowH

	p := &Plan{
		Stack:       stack,
		Core:        geom.R(0, 0, wNm, hNm),
		Utilization: utilization,
		AspectRatio: aspect,
		CellAreaNm2: cellAreaNm2,
	}
	for i := int64(0); i < hRows; i++ {
		p.Rows = append(p.Rows, Row{
			Index: int(i),
			Y:     i * rowH,
			X0:    0,
			X1:    wNm,
		})
	}
	return p, nil
}

// CoreAreaUm2 returns the core area in µm².
func (p *Plan) CoreAreaUm2() float64 { return geom.Um2(p.Core.Area()) }

// RealUtilization is cell area over snapped core area.
func (p *Plan) RealUtilization() float64 {
	return float64(p.CellAreaNm2) / float64(p.Core.Area())
}

// RowAt returns the row whose span contains y, or nil.
func (p *Plan) RowAt(y int64) *Row {
	if y < 0 {
		return nil
	}
	rowH := p.Stack.CellHeightNm()
	i := y / rowH
	if int(i) >= len(p.Rows) {
		return nil
	}
	return &p.Rows[i]
}

// PlaceIOPorts distributes the netlist's ports evenly around the core
// boundary (left/right edges top-to-bottom, then top/bottom), filling in
// Port.Pos. Deterministic in port declaration order.
func (p *Plan) PlaceIOPorts(nl *netlist.Netlist) {
	n := len(nl.Ports)
	if n == 0 {
		return
	}
	perim := 2 * (p.Core.W() + p.Core.H())
	step := perim / int64(n)
	if step < 1 {
		step = 1
	}
	pos := int64(0)
	for _, port := range nl.Ports {
		port.Pos = p.perimeterPoint(pos)
		pos += step
	}
}

// perimeterPoint maps a distance along the boundary (counterclockwise from
// the lower-left corner) to a point.
func (p *Plan) perimeterPoint(d int64) geom.Point {
	w, h := p.Core.W(), p.Core.H()
	d %= 2 * (w + h)
	switch {
	case d < w:
		return geom.Pt(d, 0)
	case d < w+h:
		return geom.Pt(w, d-w)
	case d < 2*w+h:
		return geom.Pt(w-(d-w-h), h)
	default:
		return geom.Pt(0, h-(d-2*w-h))
	}
}
