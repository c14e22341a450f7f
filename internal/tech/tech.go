// Package tech describes the virtual 5 nm technology used by the FFET /
// CFET evaluation: metal layer stacks on the frontside and backside of the
// wafer (paper Table II), per-layer electrical models, cell grid geometry
// (CPP, routing tracks) and supply parameters.
//
// Two stacks are provided:
//
//   - 4T CFET: signal metals FM1..FM12 on the frontside only; BM1/BM2 exist
//     but are reserved for the backside power delivery network (BSPDN).
//   - 3.5T FFET: a symmetric stack — FM0..FM12 mirrored by BM0..BM12, with
//     signal routing possible on both sides.
//
// FM0/BM0 are intra-cell layers and never used for inter-cell routing,
// matching the paper's evaluation rules.
package tech

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Side distinguishes the two faces of the wafer.
type Side int

const (
	// Front is the frontside of the wafer (nFET side in this work).
	Front Side = iota
	// Back is the backside of the wafer (pFET side in this work).
	Back
)

// String returns "F" or "B", matching the layer naming convention.
func (s Side) String() string {
	if s == Front {
		return "F"
	}
	return "B"
}

// Opposite returns the other wafer side.
func (s Side) Opposite() Side {
	if s == Front {
		return Back
	}
	return Front
}

// Arch identifies the transistor architecture under evaluation.
type Arch int

const (
	// FFET is the 3.5T Flip FET with symmetric dual-sided metals.
	FFET Arch = iota
	// CFET is the 4T Complementary FET with frontside signals and a
	// backside reserved for power delivery.
	CFET
)

func (a Arch) String() string {
	if a == FFET {
		return "FFET"
	}
	return "CFET"
}

// ParseArch returns the architecture a name stands for: "FFET" or
// "CFET", in any case.
func ParseArch(name string) (Arch, error) {
	switch strings.ToUpper(name) {
	case "FFET":
		return FFET, nil
	case "CFET":
		return CFET, nil
	}
	return 0, fmt.Errorf("unknown arch %q (want FFET or CFET)", name)
}

// Direction is the preferred routing direction of a metal layer.
type Direction int

const (
	// Horizontal wires run along the X axis (cell row direction).
	Horizontal Direction = iota
	// Vertical wires run along the Y axis.
	Vertical
)

func (d Direction) String() string {
	if d == Horizontal {
		return "H"
	}
	return "V"
}

// Layer is one metal layer of a stack.
type Layer struct {
	Name    string    // e.g. "FM2", "BM0", "BPR"
	Side    Side      // which wafer face the layer is on
	Index   int       // metal index: 0 for M0, 1 for M1, ...
	PitchNm int64     // minimum wire pitch
	WidthNm int64     // default wire width
	Dir     Direction // preferred routing direction
	RPerUm  float64   // wire resistance, kΩ per µm of wire
	CPerUm  float64   // wire capacitance, fF per µm of wire
	PDNOnly bool      // layer reserved for power delivery (CFET BM1/BM2, BPR)
}

// Signal reports whether the layer may carry inter-cell signal routing.
// M0 layers are intra-cell only; PDN-only layers carry power.
func (l Layer) Signal() bool { return !l.PDNOnly && l.Index >= 1 }

// Stack is a complete metal stack for one architecture.
type Stack struct {
	Arch   Arch
	Layers []Layer // sorted by (Side, Index)

	// Cell grid geometry.
	CPPNm        int64   // contacted poly pitch (cell width quantum)
	TrackNm      int64   // routing track pitch = M2 pitch (1T)
	HeightTracks float64 // standard-cell height in tracks (3.5 or 4)

	// Electrical environment.
	VDD      float64 // supply voltage, volts
	ViaRKOhm float64 // resistance of one via cut between adjacent layers, kΩ
	ViaCfF   float64 // capacitance added per via, fF

	// Power planning.
	PowerStripePitchCPP int64 // BSPDN stripe pitch in CPP units (paper: 64)

	index map[string]int // layer name -> position in Layers
}

// Electrical model anchors. Resistance scales roughly with 1/(w·t) and both
// width and thickness track the pitch, giving R ∝ pitch⁻²; capacitance per
// µm is nearly pitch-independent with a mild increase for thick wires.
const (
	refPitchNm = 30.0
	refRKOhm   = 0.55 // kΩ/µm at the 30 nm reference pitch
	refCfF     = 0.20 // fF/µm baseline
)

// wireR returns the per-µm resistance (kΩ/µm) model for a given pitch.
func wireR(pitchNm int64) float64 {
	r := refRKOhm * math.Pow(refPitchNm/float64(pitchNm), 2)
	return math.Max(r, 0.0008)
}

// wireC returns the per-µm capacitance (fF/µm) model for a given pitch.
// Tight-pitch lower metals are dominated by lateral coupling to dense
// neighbors, so capacitance per µm falls slightly as pitch relaxes.
func wireC(pitchNm int64) float64 {
	c := refCfF - 0.035*math.Log10(float64(pitchNm)/refPitchNm)
	return math.Max(c, 0.14)
}

// table2 holds the published pitch table (paper Table II). Index 0 is M0.
// FFET backside mirrors the frontside exactly; CFET backside has only the
// PDN-only BM1/BM2 with relaxed pitches plus the BPR.
var table2FrontPitch = []int64{
	28,  // M0 (intra-cell)
	34,  // M1
	30,  // M2
	42,  // M3
	42,  // M4
	76,  // M5
	76,  // M6
	76,  // M7
	76,  // M8
	76,  // M9
	76,  // M10
	126, // M11
	720, // M12
}

// MaxMetal is the highest metal index available in either stack.
const MaxMetal = 12

// PolyPitchNm is the contacted poly pitch from Table II.
const PolyPitchNm = 50

// layerDir returns the preferred direction for a metal index. M0 runs
// horizontally along the cell; directions alternate above it.
func layerDir(index int) Direction {
	if index%2 == 0 {
		return Horizontal
	}
	return Vertical
}

func makeLayer(side Side, index int, pitch int64, pdnOnly bool) Layer {
	return Layer{
		Name:    fmt.Sprintf("%sM%d", side, index),
		Side:    side,
		Index:   index,
		PitchNm: pitch,
		WidthNm: pitch / 2,
		Dir:     layerDir(index),
		RPerUm:  wireR(pitch),
		CPerUm:  wireC(pitch),
		PDNOnly: pdnOnly,
	}
}

func newStack(arch Arch) *Stack {
	s := &Stack{
		Arch:                arch,
		CPPNm:               PolyPitchNm,
		TrackNm:             30, // M2 pitch defines 1T
		VDD:                 0.7,
		ViaRKOhm:            0.020, // 20 Ω per cut
		ViaCfF:              0.02,
		PowerStripePitchCPP: 64,
	}
	for i, p := range table2FrontPitch {
		s.Layers = append(s.Layers, makeLayer(Front, i, p, false))
	}
	switch arch {
	case FFET:
		s.HeightTracks = 3.5
		for i, p := range table2FrontPitch {
			s.Layers = append(s.Layers, makeLayer(Back, i, p, false))
		}
	case CFET:
		s.HeightTracks = 4.0
		// Buried power rail inside the cell, plus PDN-only backside metals.
		bpr := Layer{
			Name: "BPR", Side: Back, Index: 0, PitchNm: 120, WidthNm: 60,
			Dir: Horizontal, RPerUm: wireR(120), CPerUm: wireC(120), PDNOnly: true,
		}
		s.Layers = append(s.Layers, bpr)
		s.Layers = append(s.Layers, makeLayer(Back, 1, 3200, true))
		s.Layers = append(s.Layers, makeLayer(Back, 2, 2400, true))
	}
	sort.SliceStable(s.Layers, func(i, j int) bool {
		a, b := s.Layers[i], s.Layers[j]
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		return a.Index < b.Index
	})
	s.index = make(map[string]int, len(s.Layers))
	for i, l := range s.Layers {
		s.index[l.Name] = i
	}
	return s
}

// NewFFET returns the 3.5T FFET stack of Table II.
func NewFFET() *Stack { return newStack(FFET) }

// NewCFET returns the 4T CFET stack of Table II.
func NewCFET() *Stack { return newStack(CFET) }

// New returns the stack for the given architecture.
func New(arch Arch) *Stack { return newStack(arch) }

// Layer returns the named layer, or false if the stack does not have it.
func (s *Stack) Layer(name string) (Layer, bool) {
	i, ok := s.index[name]
	if !ok {
		return Layer{}, false
	}
	return s.Layers[i], true
}

// MustLayer returns the named layer and panics if it does not exist. It is
// intended for layer names constructed from validated patterns.
func (s *Stack) MustLayer(name string) Layer {
	l, ok := s.Layer(name)
	if !ok {
		panic("tech: unknown layer " + name)
	}
	return l
}

// Metal returns the layer with the given side and index.
func (s *Stack) Metal(side Side, index int) (Layer, bool) {
	return s.Layer(fmt.Sprintf("%sM%d", side, index))
}

// CellHeightNm returns the standard-cell height in nm.
func (s *Stack) CellHeightNm() int64 {
	return int64(s.HeightTracks * float64(s.TrackNm))
}

// PowerStripePitchNm returns the BSPDN stripe pitch in nm.
func (s *Stack) PowerStripePitchNm() int64 {
	return s.PowerStripePitchCPP * s.CPPNm
}

// Pattern selects how many signal routing layers are used on each side,
// e.g. Pattern{Front:12, Back:12} is the paper's "FM12BM12" and
// Pattern{Front:12, Back:0} is "FM12". Counts refer to the highest metal
// index used; M0 never routes inter-cell signals.
type Pattern struct {
	Front int
	Back  int
}

// String renders the pattern in the paper's notation, e.g. "FM6BM6".
func (p Pattern) String() string {
	if p.Back == 0 {
		return fmt.Sprintf("FM%d", p.Front)
	}
	return fmt.Sprintf("FM%dBM%d", p.Front, p.Back)
}

// Total returns the total number of signal routing layers in the pattern.
func (p Pattern) Total() int { return p.Front + p.Back }

// Validate checks the pattern against a stack: layer counts must exist and
// PDN-only layers cannot route signals.
func (s *Stack) Validate(p Pattern) error {
	if p.Front < 0 || p.Front > MaxMetal {
		return fmt.Errorf("tech: frontside layer count %d out of range [0,%d]", p.Front, MaxMetal)
	}
	if p.Back < 0 || p.Back > MaxMetal {
		return fmt.Errorf("tech: backside layer count %d out of range [0,%d]", p.Back, MaxMetal)
	}
	if p.Front == 0 && p.Back == 0 {
		return fmt.Errorf("tech: pattern %v has no routing layers", p)
	}
	if s.Arch == CFET && p.Back > 0 {
		return fmt.Errorf("tech: CFET backside is PDN-only; pattern %v invalid", p)
	}
	return nil
}

// RoutingLayers returns the signal routing layers selected by the pattern,
// ordered by (side, index). M1 is the lowest inter-cell routing layer.
func (s *Stack) RoutingLayers(p Pattern) []Layer {
	var out []Layer
	for _, l := range s.Layers {
		if !l.Signal() {
			continue
		}
		max := p.Front
		if l.Side == Back {
			max = p.Back
		}
		if l.Index <= max {
			out = append(out, l)
		}
	}
	return out
}

// SideRoutingLayers returns the signal routing layers on one side.
func (s *Stack) SideRoutingLayers(p Pattern, side Side) []Layer {
	var out []Layer
	for _, l := range s.RoutingLayers(p) {
		if l.Side == side {
			out = append(out, l)
		}
	}
	return out
}

// HighestPDNLayer returns the index of the highest backside layer occupied
// by the PDN. For CFET this is BM2 (fixed); for FFET it sits above the
// highest backside signal layer, per the paper's Section IV.
func (s *Stack) HighestPDNLayer(p Pattern) int {
	if s.Arch == CFET {
		return 2
	}
	h := p.Back + 2
	if h > MaxMetal {
		h = MaxMetal
	}
	if h < 2 {
		h = 2
	}
	return h
}

// TracksPerGCell returns how many routing tracks of layer l fit across a
// gcell of the given span. Used by the global router for edge capacity.
func TracksPerGCell(l Layer, gcellNm int64) int {
	if l.PitchNm <= 0 {
		return 0
	}
	return int(gcellNm / l.PitchNm)
}

// ViaStackR returns the resistance of a via stack traversing |to-from|
// layer boundaries on one side, in kΩ.
func (s *Stack) ViaStackR(from, to int) float64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	return float64(d) * s.ViaRKOhm
}

// AllPatternsTotal enumerates every front/back split of exactly total
// routing layers with at least minPerSide on each side, in descending
// frontside count (the order used in the paper's Table III exploration).
func AllPatternsTotal(total, minPerSide int) []Pattern {
	var out []Pattern
	for f := total - minPerSide; f >= minPerSide; f-- {
		b := total - f
		if f > MaxMetal || b > MaxMetal {
			continue
		}
		out = append(out, Pattern{Front: f, Back: b})
	}
	return out
}
