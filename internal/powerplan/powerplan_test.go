package powerplan

import (
	"sync"
	"testing"

	"repro/internal/def"
	"repro/internal/floorplan"
	"repro/internal/tech"
)

func ffetPlan(t *testing.T, util float64) (*floorplan.Plan, *Result) {
	t.Helper()
	st := tech.NewFFET()
	fp, err := floorplan.New(st, 300_000_000, util, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return fp, Plan(fp)
}

func TestFFETTapsOnVSSStripes(t *testing.T) {
	fp, res := ffetPlan(t, 0.7)
	if len(res.Taps) == 0 {
		t.Fatal("FFET plan has no Power Tap Cells")
	}
	if len(res.NTSVs) != 0 {
		t.Error("FFET must not use nTSVs")
	}
	// One tap per row per VSS stripe inside the core.
	var vssInCore int
	tapW := int64(TapWidthCPP) * fp.Stack.CPPNm
	for _, s := range res.Stripes {
		if s.Net == "VSS" && s.X-tapW/2 >= 0 && s.X+tapW/2 <= fp.Core.Hi.X {
			vssInCore++
		}
	}
	wantMin := (vssInCore - 1) * len(fp.Rows)
	if len(res.Taps) < wantMin {
		t.Errorf("taps = %d, want >= %d (stripes %d x rows %d)",
			len(res.Taps), wantMin, vssInCore, len(fp.Rows))
	}
	// Taps sit on rows and near VSS stripe centerlines.
	rowH := fp.Stack.CellHeightNm()
	for _, tap := range res.Taps {
		if tap.Pos.Y%rowH != 0 {
			t.Errorf("tap %s not on a row boundary (y=%d)", tap.Name, tap.Pos.Y)
		}
	}
}

func TestStripesInterleave(t *testing.T) {
	fp, res := ffetPlan(t, 0.7)
	_ = fp
	pitch := fp.Stack.PowerStripePitchNm()
	var lastVSS, lastVDD int64 = -1, -1
	for _, s := range res.Stripes {
		switch s.Net {
		case "VSS":
			if lastVSS >= 0 && s.X-lastVSS != pitch {
				t.Errorf("VSS pitch %d, want %d (64 CPP)", s.X-lastVSS, pitch)
			}
			lastVSS = s.X
		case "VDD":
			if lastVDD >= 0 && s.X-lastVDD != pitch {
				t.Errorf("VDD pitch %d, want %d", s.X-lastVDD, pitch)
			}
			lastVDD = s.X
		}
	}
	if lastVSS < 0 || lastVDD < 0 {
		t.Fatal("missing stripes")
	}
}

func TestUtilizationCap(t *testing.T) {
	st := tech.NewFFET()
	maxU := MaxUtilization(tech.FFET, st)
	// The paper's limit: ~86%.
	if maxU < 0.85 || maxU > 0.88 {
		t.Errorf("FFET max utilization = %.3f, want ≈0.86 (paper Fig. 8a)", maxU)
	}
	if got := MaxUtilization(tech.CFET, tech.NewCFET()); got != 1.0 {
		t.Errorf("CFET max utilization = %.3f, want 1.0 (no tap cells)", got)
	}

	_, res := ffetPlan(t, 0.84)
	if !res.Feasible {
		t.Errorf("84%% should be feasible: %s", res.Reason)
	}
	_, res = ffetPlan(t, 0.88)
	if res.Feasible {
		t.Error("88% must be infeasible (tap-cell violation)")
	}
}

func TestCFETUsesNTSVs(t *testing.T) {
	st := tech.NewCFET()
	fp, err := floorplan.New(st, 300_000_000, 0.9, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res := Plan(fp)
	if len(res.Taps) != 0 {
		t.Error("CFET must not place Power Tap Cells")
	}
	if len(res.NTSVs) == 0 {
		t.Error("CFET plan needs nTSVs")
	}
	if !res.Feasible {
		t.Errorf("CFET at 90%% should pass powerplan: %s", res.Reason)
	}
	if len(res.Blockages) != 0 {
		t.Error("CFET must not block row sites")
	}
}

func TestSpecialNetsAndComponents(t *testing.T) {
	fp, res := ffetPlan(t, 0.7)
	snets := res.SpecialNets(fp, "BM8")
	if len(snets) != 2 {
		t.Fatalf("special nets = %d", len(snets))
	}
	for _, sn := range snets {
		if len(sn.Wires) == 0 {
			t.Errorf("%s has no stripes", sn.Name)
		}
		for _, w := range sn.Wires {
			if w.From.X != w.To.X {
				t.Errorf("%s stripe not vertical", sn.Name)
			}
			if w.Layer != "BM8" {
				t.Errorf("%s stripe on %s, want the given BM8", sn.Name, w.Layer)
			}
		}
	}
	comps := res.TapComponents()
	if len(comps) != len(res.Taps) {
		t.Errorf("components = %d, taps = %d", len(comps), len(res.Taps))
	}
	for _, c := range comps {
		if !c.Fixed || c.Macro != "PWRTAP" {
			t.Errorf("tap component %+v must be FIXED PWRTAP", c)
		}
	}
}

// TestTapComponentsConcurrent: forks of one powerplan checkpoint render
// their DEFs concurrently, so the shared tap components must be built
// once without racing (run with -race) and handed to every caller.
func TestTapComponentsConcurrent(t *testing.T) {
	_, res := ffetPlan(t, 0.7)
	const callers = 4
	got := make([][]*def.Component, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = res.TapComponents()
		}()
	}
	wg.Wait()
	for i, comps := range got {
		if len(comps) != len(res.Taps) || &comps[0] != &got[0][0] {
			t.Errorf("caller %d: %d components, not the shared %d", i, len(comps), len(res.Taps))
		}
	}
}
