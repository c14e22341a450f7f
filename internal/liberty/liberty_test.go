package liberty

import (
	"math"
	"testing"
	"testing/quick"
)

func linTable() *Table {
	// v = 2*slew + 3*load, exactly bilinear so interpolation is exact.
	return NewTable(
		[]float64{5, 10, 20, 40},
		[]float64{0.5, 1, 2, 4},
		func(s, l float64) float64 { return 2*s + 3*l },
	)
}

func TestLookupOnGridPoints(t *testing.T) {
	tb := linTable()
	for i, s := range tb.Slews {
		for j, l := range tb.Loads {
			got := tb.Lookup(s, l)
			want := tb.Values[i][j]
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("Lookup(%v,%v) = %v, want %v", s, l, got, want)
			}
		}
	}
}

func TestLookupInterpolatesBilinear(t *testing.T) {
	tb := linTable()
	cases := []struct{ s, l float64 }{
		{7.5, 0.75}, {15, 3}, {12, 1.4}, {39, 0.6},
	}
	for _, c := range cases {
		got := tb.Lookup(c.s, c.l)
		want := 2*c.s + 3*c.l
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Lookup(%v,%v) = %v, want %v", c.s, c.l, got, want)
		}
	}
}

func TestLookupExtrapolates(t *testing.T) {
	tb := linTable()
	// Linear extrapolation of a linear function stays exact.
	cases := []struct{ s, l float64 }{
		{2, 0.25}, {80, 8}, {5, 10}, {100, 0.5},
	}
	for _, c := range cases {
		got := tb.Lookup(c.s, c.l)
		want := 2*c.s + 3*c.l
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("extrapolated Lookup(%v,%v) = %v, want %v", c.s, c.l, got, want)
		}
	}
}

func TestSingleCellAxes(t *testing.T) {
	tb := NewTable([]float64{10}, []float64{1}, func(s, l float64) float64 { return 42 })
	if got := tb.Lookup(3, 7); got != 42 {
		t.Errorf("constant table lookup = %v", got)
	}
	row := NewTable([]float64{10}, []float64{1, 2}, func(s, l float64) float64 { return l })
	if got := row.Lookup(99, 1.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("1-row table lookup = %v, want 1.5", got)
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-ascending axis")
		}
	}()
	NewTable([]float64{10, 10}, []float64{1}, func(s, l float64) float64 { return 0 })
}

func TestScale(t *testing.T) {
	tb := linTable()
	s := tb.Scale(2)
	if got, want := s.Lookup(10, 1), 2*(2*10+3*1.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled lookup = %v, want %v", got, want)
	}
	// Original untouched.
	if got := tb.Lookup(10, 1); math.Abs(got-23) > 1e-12 {
		t.Errorf("original mutated: %v", got)
	}
}

func TestSeqClkQWorst(t *testing.T) {
	r := NewTable([]float64{10}, []float64{1}, func(s, l float64) float64 { return 12 })
	f := NewTable([]float64{10}, []float64{1}, func(s, l float64) float64 { return 9 })
	s := &SeqSpec{ClkQRise: r, ClkQFall: f}
	if got := s.ClkQWorst(10, 1); got != 12 {
		t.Errorf("ClkQWorst = %v, want 12", got)
	}
}

// Property: for a monotone characterization function, lookups inside the
// grid are bounded by the table min/max and monotone in load.
func TestLookupMonotoneInLoad(t *testing.T) {
	tb := NewTable(
		[]float64{5, 10, 20, 40, 80},
		[]float64{0.25, 0.5, 1, 2, 4},
		func(s, l float64) float64 { return 0.69 * 8 * (0.2 + l) * (1 + s/100) },
	)
	prop := func(sRaw, l1Raw, l2Raw uint16) bool {
		s := 5 + float64(sRaw%750)/10.0
		l1 := 0.25 + float64(l1Raw%375)/100.0
		l2 := 0.25 + float64(l2Raw%375)/100.0
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		return tb.Lookup(s, l1) <= tb.Lookup(s, l2)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: interpolation of a bilinear function is exact everywhere,
// including in extrapolation regions.
func TestLookupBilinearExactProperty(t *testing.T) {
	tb := linTable()
	prop := func(sRaw, lRaw int16) bool {
		s := float64(sRaw) / 100.0
		l := float64(lRaw) / 1000.0
		got := tb.Lookup(s, l)
		want := 2*s + 3*l
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
