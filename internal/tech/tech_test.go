package tech

import (
	"testing"
	"testing/quick"
)

func TestTable2FFETStack(t *testing.T) {
	s := NewFFET()
	if s.Arch != FFET {
		t.Fatalf("arch = %v", s.Arch)
	}
	// Symmetric stack: 13 layers per side.
	if got := len(s.Layers); got != 26 {
		t.Fatalf("FFET layer count = %d, want 26", got)
	}
	wantPitch := map[string]int64{
		"FM0": 28, "FM1": 34, "FM2": 30, "FM3": 42, "FM4": 42,
		"FM5": 76, "FM10": 76, "FM11": 126, "FM12": 720,
		"BM0": 28, "BM1": 34, "BM2": 30, "BM3": 42, "BM4": 42,
		"BM5": 76, "BM10": 76, "BM11": 126, "BM12": 720,
	}
	for name, p := range wantPitch {
		l, ok := s.Layer(name)
		if !ok {
			t.Errorf("missing layer %s", name)
			continue
		}
		if l.PitchNm != p {
			t.Errorf("%s pitch = %d, want %d", name, l.PitchNm, p)
		}
		if l.PDNOnly {
			t.Errorf("%s must not be PDN-only in FFET", name)
		}
	}
	if h := s.CellHeightNm(); h != 105 {
		t.Errorf("FFET cell height = %d nm, want 105 (3.5T x 30nm)", h)
	}
}

func TestTable2CFETStack(t *testing.T) {
	s := NewCFET()
	// Frontside 13 + BPR + BM1 + BM2.
	if got := len(s.Layers); got != 16 {
		t.Fatalf("CFET layer count = %d, want 16", got)
	}
	bm1 := s.MustLayer("BM1")
	bm2 := s.MustLayer("BM2")
	if bm1.PitchNm != 3200 || bm2.PitchNm != 2400 {
		t.Errorf("CFET PDN pitches = %d/%d, want 3200/2400", bm1.PitchNm, bm2.PitchNm)
	}
	if !bm1.PDNOnly || !bm2.PDNOnly {
		t.Error("CFET BM1/BM2 must be PDN-only")
	}
	bpr, ok := s.Layer("BPR")
	if !ok || bpr.PitchNm != 120 || !bpr.PDNOnly {
		t.Errorf("BPR = %+v ok=%v, want pitch 120 PDN-only", bpr, ok)
	}
	if h := s.CellHeightNm(); h != 120 {
		t.Errorf("CFET cell height = %d nm, want 120 (4T x 30nm)", h)
	}
}

func TestSignalLayerRules(t *testing.T) {
	for _, s := range []*Stack{NewFFET(), NewCFET()} {
		for _, l := range s.Layers {
			if l.Index == 0 && l.Signal() {
				t.Errorf("%s %s: M0 must never be a signal routing layer", s.Arch, l.Name)
			}
			if l.PDNOnly && l.Signal() {
				t.Errorf("%s %s: PDN-only layer cannot be signal", s.Arch, l.Name)
			}
		}
	}
}

func TestRoutingLayersPattern(t *testing.T) {
	ffet := NewFFET()
	got := ffet.RoutingLayers(Pattern{Front: 12, Back: 12})
	if len(got) != 24 {
		t.Errorf("FM12BM12 routing layers = %d, want 24", len(got))
	}
	got = ffet.RoutingLayers(Pattern{Front: 6, Back: 6})
	if len(got) != 12 {
		t.Errorf("FM6BM6 routing layers = %d, want 12", len(got))
	}
	for _, l := range got {
		if l.Index < 1 || l.Index > 6 {
			t.Errorf("FM6BM6 contains %s", l.Name)
		}
	}
	cfet := NewCFET()
	got = cfet.RoutingLayers(Pattern{Front: 12})
	if len(got) != 12 {
		t.Errorf("CFET FM12 routing layers = %d, want 12", len(got))
	}
	for _, l := range got {
		if l.Side != Front {
			t.Errorf("CFET routing layer on backside: %s", l.Name)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	ffet, cfet := NewFFET(), NewCFET()
	if err := ffet.Validate(Pattern{Front: 12, Back: 12}); err != nil {
		t.Errorf("FM12BM12 on FFET: %v", err)
	}
	if err := ffet.Validate(Pattern{Front: 2, Back: 2}); err != nil {
		t.Errorf("FM2BM2 on FFET: %v", err)
	}
	if err := cfet.Validate(Pattern{Front: 12, Back: 1}); err == nil {
		t.Error("CFET with backside signals must be invalid")
	}
	if err := cfet.Validate(Pattern{Front: 12}); err != nil {
		t.Errorf("FM12 on CFET: %v", err)
	}
	if err := ffet.Validate(Pattern{}); err == nil {
		t.Error("empty pattern must be invalid")
	}
	if err := ffet.Validate(Pattern{Front: 13}); err == nil {
		t.Error("13 layers must be invalid")
	}
}

func TestPatternString(t *testing.T) {
	cases := []struct {
		p    Pattern
		want string
	}{
		{Pattern{Front: 12, Back: 12}, "FM12BM12"},
		{Pattern{Front: 12}, "FM12"},
		{Pattern{Front: 6, Back: 6}, "FM6BM6"},
		{Pattern{Front: 8, Back: 4}, "FM8BM4"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v String = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestElectricalMonotonicity(t *testing.T) {
	// Wider-pitch layers must have strictly lower resistance per µm.
	s := NewFFET()
	fm2 := s.MustLayer("FM2")
	fm5 := s.MustLayer("FM5")
	fm12 := s.MustLayer("FM12")
	if !(fm2.RPerUm > fm5.RPerUm && fm5.RPerUm > fm12.RPerUm) {
		t.Errorf("R/µm not monotone: FM2=%.4f FM5=%.4f FM12=%.4f",
			fm2.RPerUm, fm5.RPerUm, fm12.RPerUm)
	}
	// Sanity bands for a 5 nm node.
	if fm2.RPerUm < 0.1 || fm2.RPerUm > 2.0 {
		t.Errorf("FM2 R/µm = %.3f kΩ/µm outside plausible band", fm2.RPerUm)
	}
	if fm2.CPerUm < 0.1 || fm2.CPerUm > 0.4 {
		t.Errorf("FM2 C/µm = %.3f fF/µm outside plausible band", fm2.CPerUm)
	}
}

func TestStackSymmetryFFET(t *testing.T) {
	s := NewFFET()
	for i := 0; i <= MaxMetal; i++ {
		f, okF := s.Metal(Front, i)
		b, okB := s.Metal(Back, i)
		if !okF || !okB {
			t.Fatalf("missing metal %d: front=%v back=%v", i, okF, okB)
		}
		if f.PitchNm != b.PitchNm || f.RPerUm != b.RPerUm || f.CPerUm != b.CPerUm {
			t.Errorf("M%d asymmetric: front=%+v back=%+v", i, f, b)
		}
		if f.Dir != b.Dir {
			t.Errorf("M%d direction asymmetric", i)
		}
	}
}

func TestDirectionsAlternate(t *testing.T) {
	s := NewFFET()
	for i := 1; i <= MaxMetal; i++ {
		l, _ := s.Metal(Front, i)
		prev, _ := s.Metal(Front, i-1)
		if l.Dir == prev.Dir {
			t.Errorf("layers M%d and M%d share direction %v", i-1, i, l.Dir)
		}
	}
}

func TestHighestPDNLayer(t *testing.T) {
	ffet, cfet := NewFFET(), NewCFET()
	if got := cfet.HighestPDNLayer(Pattern{Front: 12}); got != 2 {
		t.Errorf("CFET highest PDN = %d, want 2", got)
	}
	if got := ffet.HighestPDNLayer(Pattern{Front: 6, Back: 6}); got != 8 {
		t.Errorf("FFET FM6BM6 highest PDN = %d, want 8", got)
	}
	if got := ffet.HighestPDNLayer(Pattern{Front: 12, Back: 12}); got != 12 {
		t.Errorf("FFET FM12BM12 highest PDN = %d, want 12 (clamped)", got)
	}
}

func TestPowerStripePitch(t *testing.T) {
	s := NewFFET()
	if got := s.PowerStripePitchNm(); got != 64*50 {
		t.Errorf("power stripe pitch = %d, want 3200", got)
	}
}

func TestTracksPerGCell(t *testing.T) {
	s := NewFFET()
	fm2 := s.MustLayer("FM2")
	if got := TracksPerGCell(fm2, 1500); got != 50 {
		t.Errorf("tracks per 1.5µm gcell at 30nm pitch = %d, want 50", got)
	}
	fm12 := s.MustLayer("FM12")
	if got := TracksPerGCell(fm12, 1500); got != 2 {
		t.Errorf("FM12 tracks = %d, want 2", got)
	}
}

func TestAllPatternsTotal(t *testing.T) {
	ps := AllPatternsTotal(12, 2)
	if len(ps) != 9 {
		t.Fatalf("got %d patterns, want 9 (10..2 front)", len(ps))
	}
	for _, p := range ps {
		if p.Total() != 12 {
			t.Errorf("pattern %v total = %d", p, p.Total())
		}
		if p.Front < 2 || p.Back < 2 {
			t.Errorf("pattern %v violates minPerSide", p)
		}
	}
	if ps[0] != (Pattern{Front: 10, Back: 2}) {
		t.Errorf("first pattern = %v, want FM10BM2", ps[0])
	}
}

// Property: wire R decreases and C decreases (weakly, coupling-dominated)
// with pitch, and both stay in plausible bands.
func TestWireModelProperties(t *testing.T) {
	prop := func(a, b uint16) bool {
		p1 := int64(a%3000) + 20
		p2 := int64(b%3000) + 20
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return wireR(p1) >= wireR(p2) && wireC(p1) >= wireC(p2) &&
			wireC(p1) <= 0.4 && wireC(p2) >= 0.14
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestViaStackR(t *testing.T) {
	s := NewFFET()
	if got := s.ViaStackR(1, 5); got != 4*s.ViaRKOhm {
		t.Errorf("via stack R = %v", got)
	}
	if got := s.ViaStackR(5, 1); got != 4*s.ViaRKOhm {
		t.Errorf("via stack R reversed = %v", got)
	}
	if got := s.ViaStackR(3, 3); got != 0 {
		t.Errorf("zero-hop via stack R = %v", got)
	}
}

func TestParseArch(t *testing.T) {
	for name, want := range map[string]Arch{"ffet": FFET, "FFET": FFET, "CFET": CFET, "cFeT": CFET} {
		if got, err := ParseArch(name); err != nil || got != want {
			t.Errorf("ParseArch(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "GAA", "ffet "} {
		if _, err := ParseArch(name); err == nil {
			t.Errorf("ParseArch(%q) accepted an unknown arch", name)
		}
	}
}
