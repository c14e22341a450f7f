// Package liberty implements NLDM-style (non-linear delay model) lookup
// tables and timing arcs, the characterization format produced by the
// library generator and consumed by static timing analysis.
//
// A Table is indexed by input slew (ps) and output load (fF) and stores
// delay (ps), output slew (ps) or switching energy (fJ). Lookups use
// bilinear interpolation inside the characterized grid and linear
// extrapolation outside it, matching common STA engine behaviour.
package liberty

import (
	"fmt"
	"sort"
)

// Table is a 2-D characterization table over (input slew, output load).
type Table struct {
	Slews  []float64   // ps, strictly ascending
	Loads  []float64   // fF, strictly ascending
	Values [][]float64 // Values[i][j] for Slews[i], Loads[j]
}

// NewTable evaluates f over the given axes to build a table.
// It panics if either axis is empty or not strictly ascending.
func NewTable(slews, loads []float64, f func(slew, load float64) float64) *Table {
	checkAxis("slews", slews)
	checkAxis("loads", loads)
	t := &Table{
		Slews:  append([]float64(nil), slews...),
		Loads:  append([]float64(nil), loads...),
		Values: make([][]float64, len(slews)),
	}
	for i, s := range slews {
		t.Values[i] = make([]float64, len(loads))
		for j, l := range loads {
			t.Values[i][j] = f(s, l)
		}
	}
	return t
}

func checkAxis(name string, axis []float64) {
	if len(axis) == 0 {
		panic("liberty: empty " + name + " axis")
	}
	for i := 1; i < len(axis); i++ {
		if axis[i] <= axis[i-1] {
			panic(fmt.Sprintf("liberty: %s axis not strictly ascending at %d", name, i))
		}
	}
}

// segment finds the interpolation cell for v in axis: the index i such that
// axis[i] <= v <= axis[i+1], clamped to the boundary cells so out-of-range
// values extrapolate along the edge segment.
func segment(axis []float64, v float64) int {
	n := len(axis)
	if n == 1 {
		return 0
	}
	i := sort.SearchFloat64s(axis, v)
	switch {
	case i <= 0:
		return 0
	case i >= n:
		return n - 2
	default:
		return i - 1
	}
}

// Lookup returns the bilinearly interpolated value at (slew, load),
// linearly extrapolating when the query lies outside the grid.
func (t *Table) Lookup(slew, load float64) float64 {
	i := segment(t.Slews, slew)
	j := segment(t.Loads, load)
	if len(t.Slews) == 1 && len(t.Loads) == 1 {
		return t.Values[0][0]
	}
	var fs, fl float64
	i2, j2 := i, j
	if len(t.Slews) > 1 {
		i2 = i + 1
		fs = (slew - t.Slews[i]) / (t.Slews[i2] - t.Slews[i])
	}
	if len(t.Loads) > 1 {
		j2 = j + 1
		fl = (load - t.Loads[j]) / (t.Loads[j2] - t.Loads[j])
	}
	v00 := t.Values[i][j]
	v01 := t.Values[i][j2]
	v10 := t.Values[i2][j]
	v11 := t.Values[i2][j2]
	return v00*(1-fs)*(1-fl) + v10*fs*(1-fl) + v01*(1-fs)*fl + v11*fs*fl
}

// Scale returns a copy of the table with every value multiplied by k.
func (t *Table) Scale(k float64) *Table {
	out := &Table{
		Slews:  append([]float64(nil), t.Slews...),
		Loads:  append([]float64(nil), t.Loads...),
		Values: make([][]float64, len(t.Values)),
	}
	for i, row := range t.Values {
		out.Values[i] = make([]float64, len(row))
		for j, v := range row {
			out.Values[i][j] = v * k
		}
	}
	return out
}

// Unateness describes how an output transition relates to the triggering
// input transition through a timing arc.
type Unateness int

const (
	// NegativeUnate arcs invert: a rising input causes a falling output.
	NegativeUnate Unateness = iota
	// PositiveUnate arcs buffer: a rising input causes a rising output.
	PositiveUnate
	// NonUnate arcs (e.g. MUX select, XOR inputs) can cause either edge.
	NonUnate
)

func (u Unateness) String() string {
	switch u {
	case NegativeUnate:
		return "negative_unate"
	case PositiveUnate:
		return "positive_unate"
	default:
		return "non_unate"
	}
}

// Arc is one combinational timing arc of a cell: input pin -> output pin.
// Delay and output-slew tables are split by the *output* transition edge;
// energy tables give the internal switching energy per output transition.
type Arc struct {
	From  string
	To    string
	Unate Unateness

	DelayRise *Table // output rising
	DelayFall *Table // output falling
	SlewRise  *Table
	SlewFall  *Table

	EnergyRise *Table // fJ per output rise (internal, excludes load)
	EnergyFall *Table // fJ per output fall
}

// SeqSpec describes sequential behaviour of a flip-flop cell.
type SeqSpec struct {
	ClockPin string  // e.g. "CP"
	DataPin  string  // e.g. "D"
	SetupPs  float64 // setup time requirement at D vs CP rise
	HoldPs   float64 // hold time requirement
	// Clock-to-Q arcs (indexed by clock slew and Q load).
	ClkQRise *Table
	ClkQFall *Table
	// Internal energy per clock toggle (clock-pin power).
	ClockEnergy float64 // fJ per clock edge pair
}

// ClkQWorst returns the worse of the two clock-to-Q delays.
func (s *SeqSpec) ClkQWorst(slew, load float64) float64 {
	r := s.ClkQRise.Lookup(slew, load)
	f := s.ClkQFall.Lookup(slew, load)
	if r > f {
		return r
	}
	return f
}
