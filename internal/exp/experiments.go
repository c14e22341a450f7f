package exp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/tech"
	"repro/internal/variation"
)

// ErrClass names the taxonomy kind of a classified sweep-point error,
// for compact table cells.
func ErrClass(err error) string {
	switch {
	case errors.Is(err, core.ErrCancelled):
		return "cancelled"
	case errors.Is(err, core.ErrStagePanic):
		return "panic"
	case errors.Is(err, core.ErrInvalidConfig):
		return "invalid-config"
	case errors.Is(err, core.ErrSessionDead):
		return "session-dead"
	case errors.Is(err, core.ErrForkRace):
		return "fork-race"
	case errors.Is(err, core.ErrStageFailed):
		return "stage-failed"
	}
	return "unclassified"
}

// validCell renders a result's validity column: the usual true/false, or
// the error class when the point is a failure placeholder.
func validCell(r *core.FlowResult) string {
	if r.Err != nil {
		return "error: " + ErrClass(r.Err)
	}
	return fmt.Sprintf("%v", r.Valid)
}

// numCell blanks a metric cell when its point died: a dead point's
// zero-valued metrics would otherwise read as real data.
func numCell(r *core.FlowResult, rendered string) string {
	if r.Err != nil {
		return "-"
	}
	return rendered
}

// Fig04 reproduces the standard-cell area comparison (3.5T FFET vs 4T
// CFET, 28 cells).
func (s *Suite) Fig04() *Table {
	t := &Table{
		ID:     "fig04",
		Title:  "Standard cell area: 3.5T FFET vs 4T CFET",
		Header: []string{"cell", "FFET um2", "CFET um2", "gain %"},
		Notes: []string{
			"paper: ~12.5% for plain cells; extra gain for MUX/DFF (Split Gate); <=0 for AOI22/OAI22 (extra Drain Merge)",
		},
	}
	for _, name := range s.FFET.CellNames() {
		f := s.FFET.Cell(name)
		c := s.CFET.Cell(name)
		gain := 100 * (1 - f.AreaUm2(s.FFET.Stack)/c.AreaUm2(s.CFET.Stack))
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.4f", f.AreaUm2(s.FFET.Stack)),
			fmt.Sprintf("%.4f", c.AreaUm2(s.CFET.Stack)),
			pc(gain),
		})
	}
	return t
}

// Table1 reproduces the library characterization KPI diffs for INV/BUF
// D1/D2/D4.
func (s *Suite) Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Library characterization: FFET KPI diff w.r.t. CFET",
		Header: []string{"KPI", "INVD1", "INVD2", "INVD4", "BUFD1", "BUFD2", "BUFD4"},
		Notes: []string{
			"paper trends: transition power ~parity on INV / clearly lower on BUF; timing better everywhere, fall > rise; leakage identical",
		},
	}
	cells := []string{"INVD1", "INVD2", "INVD4", "BUFD1", "BUFD2", "BUFD4"}
	row := func(kpi string, get func(name string, ffet bool) float64) {
		cols := []string{kpi}
		for _, cn := range cells {
			d := 100 * (get(cn, true)/get(cn, false) - 1)
			cols = append(cols, pc(d))
		}
		t.Rows = append(t.Rows, cols)
	}
	at := func(name string, ffet bool) (slew, load float64) {
		c := s.FFET.MustCell(name)
		return 20, float64(c.Drive)
	}
	row("Transition power", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		sl, ld := at(name, ffet)
		a := lib.MustCell(name).Arc("I")
		return a.EnergyRise.Lookup(sl, ld) + a.EnergyFall.Lookup(sl, ld)
	})
	row("Leakage power", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		return lib.MustCell(name).LeakageNW
	})
	row("Rise timing", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		sl, ld := at(name, ffet)
		return lib.MustCell(name).Arc("I").DelayRise.Lookup(sl, ld)
	})
	row("Fall timing", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		sl, ld := at(name, ffet)
		return lib.MustCell(name).Arc("I").DelayFall.Lookup(sl, ld)
	})
	row("Rise transition", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		sl, ld := at(name, ffet)
		return lib.MustCell(name).Arc("I").SlewRise.Lookup(sl, ld)
	})
	row("Fall transition", func(name string, ffet bool) float64 {
		lib := s.CFET
		if ffet {
			lib = s.FFET
		}
		sl, ld := at(name, ffet)
		return lib.MustCell(name).Arc("I").SlewFall.Lookup(sl, ld)
	})
	return t
}

// Table2 dumps the design-rule metal stacks.
func (s *Suite) Table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Design rules: metal layer pitches (nm)",
		Header: []string{"layer", "4T CFET", "3.5T FFET"},
	}
	names := []string{"Poly", "BPR"}
	for i := 0; i <= tech.MaxMetal; i++ {
		names = append(names, fmt.Sprintf("FM%d", i))
	}
	for i := 0; i <= tech.MaxMetal; i++ {
		names = append(names, fmt.Sprintf("BM%d", i))
	}
	get := func(st *tech.Stack, name string) string {
		if name == "Poly" {
			return fmt.Sprintf("%d", tech.PolyPitchNm)
		}
		l, ok := st.Layer(name)
		if !ok {
			return "-"
		}
		suffix := ""
		if l.PDNOnly {
			suffix = " (PDN)"
		}
		return fmt.Sprintf("%d%s", l.PitchNm, suffix)
	}
	for _, n := range names {
		c := get(s.CFET.Stack, n)
		f := get(s.FFET.Stack, n)
		if c == "-" && f == "-" {
			continue
		}
		t.Rows = append(t.Rows, []string{n, c, f})
	}
	return t
}

// areaUtilSweep runs a utilization sweep for one configuration. The
// result slice always covers the full grid — dead points are failure
// placeholders — and the error joins whatever killed them.
func (s *Suite) areaUtilSweep(arch tech.Arch, pattern tech.Pattern, backPins float64, target float64) ([]*core.FlowResult, error) {
	var specs []Spec
	for _, u := range s.utilSweep() {
		cfg := core.DefaultFlowConfig(pattern, target, u)
		cfg.BackPinFraction = backPins
		specs = append(specs, Spec{arch, cfg})
	}
	return s.runAll(specs)
}

func maxValidUtil(results []*core.FlowResult) (float64, float64) {
	maxU, minArea := 0.0, math.Inf(1)
	for _, r := range results {
		if !r.Valid {
			continue
		}
		if r.Config.Utilization > maxU {
			maxU = r.Config.Utilization
			minArea = r.CoreAreaUm2
		}
	}
	return maxU, minArea
}

// Fig08a compares core area vs utilization: CFET vs FFET FM12BM12.
func (s *Suite) Fig08a() (*Table, error) {
	ffet, fErr := s.areaUtilSweep(tech.FFET, tech.Pattern{Front: 12, Back: 12}, 0.5, 1.5)
	cfet, cErr := s.areaUtilSweep(tech.CFET, tech.Pattern{Front: 12}, 0, 1.5)
	t := &Table{
		ID:     "fig08a",
		Title:  "Core area vs utilization: CFET vs FFET FM12BM12 (target 1.5 GHz)",
		Header: []string{"util %", "CFET um2", "CFET valid", "FFET um2", "FFET valid"},
	}
	for i := range ffet {
		t.Rows = append(t.Rows, []string{
			f1(ffet[i].Config.Utilization * 100),
			numCell(cfet[i], f1(cfet[i].CoreAreaUm2)), validCell(cfet[i]),
			numCell(ffet[i], f1(ffet[i].CoreAreaUm2)), validCell(ffet[i]),
		})
	}
	fu, fa := maxValidUtil(ffet)
	cu, ca := maxValidUtil(cfet)
	t.Notes = append(t.Notes,
		fmt.Sprintf("max util: FFET FM12BM12 %.0f%% (paper 86%%), CFET %.0f%%", fu*100, cu*100),
		fmt.Sprintf("min core area: FFET %.1f um2, CFET %.1f um2 -> %.1f%% reduction (paper -25.1%%)",
			fa, ca, 100*(1-fa/ca)))
	return t, errors.Join(fErr, cErr)
}

// Fig08b reports the core layouts at a common utilization: dimensions,
// per-side wire usage and BSPDN stripe count (Flow.DEF renders the
// layouts themselves).
func (s *Suite) Fig08b() (*Table, error) {
	util := 0.84
	cfgF := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, util)
	cfgF.BackPinFraction = 0.5
	rf, err := s.Run(tech.FFET, cfgF)
	if err != nil {
		return nil, err
	}
	rc, err := s.Run(tech.CFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, util))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig08b",
		Title:  "Core layout at 84% utilization",
		Header: []string{"metric", "CFET", "FFET FM12BM12"},
	}
	t.Rows = append(t.Rows,
		[]string{"die W x H (um)", fmt.Sprintf("%.2f x %.2f", float64(rc.CoreW)/1000, float64(rc.CoreH)/1000),
			fmt.Sprintf("%.2f x %.2f", float64(rf.CoreW)/1000, float64(rf.CoreH)/1000)},
		[]string{"core area (um2)", f1(rc.CoreAreaUm2), f1(rf.CoreAreaUm2)},
		[]string{"front wire (um)", f1(rc.WirelenFrontUm), f1(rf.WirelenFrontUm)},
		[]string{"back wire (um)", f1(rc.WirelenBackUm), f1(rf.WirelenBackUm)},
		[]string{"power stripes", fmt.Sprintf("%d", rc.PowerStripes), fmt.Sprintf("%d", rf.PowerStripes)},
		[]string{"valid", fmt.Sprintf("%v", rc.Valid), fmt.Sprintf("%v", rf.Valid)},
	)
	t.Notes = append(t.Notes, "paper: CFET 21.11x21.12 um vs FFET 18.54x18.47 um")
	return t, nil
}

// Fig08c compares core area vs utilization: CFET vs FFET FM12 (frontside
// signals only).
func (s *Suite) Fig08c() (*Table, error) {
	ffet, fErr := s.areaUtilSweep(tech.FFET, tech.Pattern{Front: 12}, 0, 1.5)
	cfet, cErr := s.areaUtilSweep(tech.CFET, tech.Pattern{Front: 12}, 0, 1.5)
	t := &Table{
		ID:     "fig08c",
		Title:  "Core area vs utilization: CFET vs FFET FM12 (single-sided signals)",
		Header: []string{"util %", "CFET um2", "CFET valid", "FFET um2", "FFET valid"},
	}
	for i := range ffet {
		t.Rows = append(t.Rows, []string{
			f1(ffet[i].Config.Utilization * 100),
			numCell(cfet[i], f1(cfet[i].CoreAreaUm2)), validCell(cfet[i]),
			numCell(ffet[i], f1(ffet[i].CoreAreaUm2)), validCell(ffet[i]),
		})
	}
	fu, fa := maxValidUtil(ffet)
	cu, ca := maxValidUtil(cfet)
	t.Notes = append(t.Notes,
		fmt.Sprintf("max util: FFET FM12 %.0f%% (paper 76%%), CFET %.0f%%", fu*100, cu*100),
		fmt.Sprintf("min area gain %.1f%% (paper -15.4%%)", 100*(1-fa/ca)))
	return t, errors.Join(fErr, cErr)
}

// Fig09 sweeps the synthesis target and reports power vs achieved
// frequency for CFET and FFET FM12 at 76% utilization.
func (s *Suite) Fig09() (*Table, error) {
	util := 0.76
	var specs []Spec
	for _, tgt := range s.freqSweep() {
		specs = append(specs, Spec{tech.CFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, tgt, util)})
		specs = append(specs, Spec{tech.FFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, tgt, util)})
	}
	rs, sweepErr := s.runAll(specs)
	t := &Table{
		ID:     "fig09",
		Title:  "Power vs achieved frequency at 76% utilization: CFET vs FFET FM12",
		Header: []string{"target GHz", "CFET GHz", "CFET mW", "FFET GHz", "FFET mW"},
	}
	var cMax, fMax, cPwr, fPwr float64
	for i := 0; i < len(rs); i += 2 {
		c, f := rs[i], rs[i+1]
		t.Rows = append(t.Rows, []string{
			f2(c.Config.TargetFreqGHz),
			numCell(c, f3s(c.AchievedFreqGHz)), numCell(c, f3s(c.PowerUW/1000)),
			numCell(f, f3s(f.AchievedFreqGHz)), numCell(f, f3s(f.PowerUW/1000)),
		})
		if f.AchievedFreqGHz > fMax {
			fMax, fPwr = f.AchievedFreqGHz, f.PowerUW
		}
		if c.AchievedFreqGHz > cMax {
			cMax, cPwr = c.AchievedFreqGHz, c.PowerUW
		}
	}
	if fMax > 0 && cMax > 0 {
		// Power compared at matched frequency (energy per cycle), the
		// iso-frequency reading of the paper's Fig. 9 curves.
		fE := fPwr / fMax
		cE := cPwr / cMax
		t.Notes = append(t.Notes,
			fmt.Sprintf("max achieved: FFET %.3f GHz vs CFET %.3f GHz -> freq %+.1f%% (paper +25.0%%)",
				fMax, cMax, 100*(fMax/cMax-1)),
			fmt.Sprintf("energy/cycle: FFET %.3f vs CFET %.3f pJ -> %+.1f%% (paper power -11.9%% at matched freq)",
				fE/1000, cE/1000, 100*(fE/cE-1)))
	}
	return t, sweepErr
}

// Fig10 reports achieved frequency vs core area at a 1.5 GHz target
// (area varied through utilization).
func (s *Suite) Fig10() (*Table, error) {
	var specs []Spec
	utils := []float64{0.56, 0.62, 0.68, 0.72, 0.76}
	if s.Scale == Full {
		utils = []float64{0.52, 0.56, 0.60, 0.64, 0.68, 0.72, 0.76, 0.80}
	}
	for _, u := range utils {
		specs = append(specs, Spec{tech.CFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, u)})
		specs = append(specs, Spec{tech.FFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, u)})
	}
	rs, sweepErr := s.runAll(specs)
	t := &Table{
		ID:     "fig10",
		Title:  "Achieved frequency vs core area (target 1.5 GHz): CFET vs FFET FM12",
		Header: []string{"util %", "CFET um2", "CFET GHz", "FFET um2", "FFET GHz"},
	}
	var fBest, cBest float64
	for i := 0; i < len(rs); i += 2 {
		c, f := rs[i], rs[i+1]
		t.Rows = append(t.Rows, []string{
			f1(c.Config.Utilization * 100),
			numCell(c, f1(c.CoreAreaUm2)), numCell(c, f3s(c.AchievedFreqGHz)),
			numCell(f, f1(f.CoreAreaUm2)), numCell(f, f3s(f.AchievedFreqGHz)),
		})
		if f.Valid && f.AchievedFreqGHz > fBest {
			fBest = f.AchievedFreqGHz
		}
		if c.Valid && c.AchievedFreqGHz > cBest {
			cBest = c.AchievedFreqGHz
		}
	}
	if cBest > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"max freq: FFET %.3f vs CFET %.3f GHz -> %+.1f%% (paper +23.4%% at respective max)",
			fBest, cBest, 100*(fBest/cBest-1)))
	}
	return t, sweepErr
}

// Fig11 sweeps the input-pin density DoEs on FM12BM12 across utilization.
func (s *Suite) Fig11() (*Table, error) {
	does := []float64{0.5, 0.4, 0.3, 0.16, 0.04}
	utils := []float64{0.46, 0.56, 0.66, 0.76}
	if s.Scale == Full {
		utils = []float64{0.46, 0.51, 0.56, 0.61, 0.66, 0.71, 0.76}
	}
	var specs []Spec
	for _, bp := range does {
		for _, u := range utils {
			cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, u)
			cfg.BackPinFraction = bp
			specs = append(specs, Spec{tech.FFET, cfg})
		}
	}
	rs, sweepErr := s.runAll(specs)
	t := &Table{
		ID:     "fig11",
		Title:  "Power-frequency across pin-density DoEs (FM12BM12, util 46-76%)",
		Header: []string{"DoE", "util %", "freq GHz", "power mW", "valid"},
	}
	type agg struct {
		f, p float64
		n    int
	}
	means := map[float64]*agg{}
	i := 0
	for _, bp := range does {
		for range utils {
			r := rs[i]
			i++
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("FP%.2gBP%.2g", 1-bp, bp),
				f1(r.Config.Utilization * 100),
				numCell(r, f3s(r.AchievedFreqGHz)), numCell(r, f3s(r.PowerUW/1000)),
				validCell(r),
			})
			if r.Valid {
				if means[bp] == nil {
					means[bp] = &agg{}
				}
				means[bp].f += r.AchievedFreqGHz
				means[bp].p += r.PowerUW
				means[bp].n++
			}
		}
	}
	for _, bp := range does {
		if a := means[bp]; a != nil && a.n > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"FP%.2gBP%.2g mean: %.3f GHz, %.3f mW over %d valid points",
				1-bp, bp, a.f/float64(a.n), a.p/float64(a.n)/1000, a.n))
		}
	}
	t.Notes = append(t.Notes, "paper: FP0.5BP0.5 and FP0.6BP0.4 best; FP0.96BP0.04 worst")
	return t, sweepErr
}

// Table3 co-optimizes pin density and layer splits at 12 total layers
// against the FFET FM12 baseline.
func (s *Suite) Table3() (*Table, error) {
	util := 0.76
	base, err := s.Run(tech.FFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, util))
	if err != nil {
		return nil, err
	}
	type doe struct {
		bp       float64
		patterns []tech.Pattern
	}
	does := []doe{
		{0.04, []tech.Pattern{{Front: 10, Back: 2}, {Front: 9, Back: 3}}},
		{0.16, []tech.Pattern{{Front: 9, Back: 3}, {Front: 8, Back: 4}}},
		{0.30, []tech.Pattern{{Front: 9, Back: 3}, {Front: 8, Back: 4}, {Front: 7, Back: 5}}},
		{0.40, []tech.Pattern{{Front: 8, Back: 4}, {Front: 7, Back: 5}, {Front: 6, Back: 6}}},
		{0.50, []tech.Pattern{{Front: 8, Back: 4}, {Front: 7, Back: 5}, {Front: 6, Back: 6}}},
	}
	var specs []Spec
	for _, d := range does {
		for _, p := range d.patterns {
			cfg := core.DefaultFlowConfig(p, 1.5, util)
			cfg.BackPinFraction = d.bp
			specs = append(specs, Spec{tech.FFET, cfg})
		}
	}
	rs, sweepErr := s.runAll(specs)
	t := &Table{
		ID:     "table3",
		Title:  "Pin density x routing layer co-optimization vs FFET FM12 baseline",
		Header: []string{"pin density", "pattern", "freq diff", "energy/cycle diff", "valid"},
		Notes: []string{
			fmt.Sprintf("baseline FFET FM12: %.3f GHz, %.3f mW", base.AchievedFreqGHz, base.PowerUW/1000),
			"paper best: FP0.5BP0.5 FM6BM6 +10.6% freq no power cost; FP0.7BP0.3 FM8BM4 +12.8% freq +1.4% power",
		},
	}
	i := 0
	for _, d := range does {
		for _, p := range d.patterns {
			r := rs[i]
			i++
			baseE := base.PowerUW / base.AchievedFreqGHz
			rE := r.PowerUW / r.AchievedFreqGHz
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("FP%.2gBP%.2g", 1-d.bp, d.bp),
				p.String(),
				numCell(r, pc(100*(r.AchievedFreqGHz/base.AchievedFreqGHz-1))),
				numCell(r, pc(100*(rE/baseE-1))),
				validCell(r),
			})
		}
	}
	return t, sweepErr
}

// Fig12 finds max utilization while shrinking both sides' layer counts.
func (s *Suite) Fig12() (*Table, error) {
	layerCounts := []int{12, 8, 6, 5, 4, 3, 2}
	if s.Scale == Full {
		layerCounts = []int{12, 10, 8, 7, 6, 5, 4, 3, 2}
	}
	t := &Table{
		ID:     "fig12",
		Title:  "Max utilization of FFET FP0.5BP0.5 vs routing layers per side",
		Header: []string{"layers/side", "max util %"},
		Notes:  []string{"paper: flat 86% down to 4 layers/side, ~70% at 2"},
	}
	var errs []error
	for _, n := range layerCounts {
		rs, err := s.areaUtilSweep(tech.FFET, tech.Pattern{Front: n, Back: n}, 0.5, 1.5)
		if err != nil {
			errs = append(errs, err)
		}
		u, _ := maxValidUtil(rs)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), f1(u * 100)})
	}
	return t, errors.Join(errs...)
}

// Fig13 tracks power efficiency while shrinking both sides' layer counts
// at fixed 76% utilization.
func (s *Suite) Fig13() (*Table, error) {
	layerCounts := []int{12, 8, 6, 5, 4, 3}
	if s.Scale == Full {
		layerCounts = []int{12, 10, 9, 8, 7, 6, 5, 4, 3}
	}
	var specs []Spec
	for _, n := range layerCounts {
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: n, Back: n}, 1.5, 0.76)
		cfg.BackPinFraction = 0.5
		specs = append(specs, Spec{tech.FFET, cfg})
	}
	rs, sweepErr := s.runAll(specs)
	t := &Table{
		ID:     "fig13",
		Title:  "Power efficiency of FFET FP0.5BP0.5 vs routing layers per side (util 76%)",
		Header: []string{"layers/side", "freq GHz", "power mW", "GHz/W", "valid"},
		Notes:  []string{"paper: only -0.68% efficiency from 12 to 5 layers/side"},
	}
	var eff12 float64
	for i, n := range layerCounts {
		r := rs[i]
		eff := r.EffGHzPerW
		if n == 12 && r.Err == nil {
			eff12 = eff
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), numCell(r, f3s(r.AchievedFreqGHz)), numCell(r, f3s(r.PowerUW/1000)),
			numCell(r, f1(eff)), validCell(r),
		})
	}
	if eff12 > 0 {
		for i, n := range layerCounts {
			if n == 5 {
				t.Notes = append(t.Notes, fmt.Sprintf("efficiency diff 12->5 layers: %+.2f%%",
					100*(rs[i].EffGHzPerW/eff12-1)))
			}
		}
	}
	return t, sweepErr
}

// VariationMC runs the overlay-variation Monte Carlo study of PAPERS.md's
// FlipFET-vs-CFET benchmark on one placed-and-clocked FFET session: the
// leader runs dual-sided pins (FP0.5BP0.5) through CTS, a fork flips the
// back pins off (all-front — the single-sided CFET-like proxy with the
// same cells, placement and clock tree), and both variants' StageSTA
// checkpoints are sampled under the same overlay model and seed, so the
// distributions differ only through pin sidedness.
func (s *Suite) VariationMC() (*Table, error) {
	pattern := tech.Pattern{Front: 6, Back: 6}
	samples := 2048
	if s.Scale == Full {
		pattern = tech.Pattern{Front: 12, Back: 12}
		samples = 8192
	}
	cfg := core.DefaultFlowConfig(pattern, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	leader, err := core.NewFlow(s.Netlist(tech.FFET), cfg)
	if err != nil {
		return nil, err
	}
	ctx := s.ctx()
	if err := leader.RunToCtx(ctx, core.StageCTS); err != nil {
		return nil, err
	}
	proxy, err := leader.Fork(func(c *core.FlowConfig) { c.BackPinFraction = 0 })
	if err != nil {
		return nil, err
	}
	opt := variation.DefaultOptions()
	opt.Samples = samples
	// The exp tables trade throughput for fidelity: the lowered screening
	// floor admits the mid-cap nets that carry much of the distribution's
	// sigma (see variation.Options.FloorFF).
	opt.FloorFF = 0.25
	t := &Table{
		ID:    "mc",
		Title: "Overlay-variation Monte Carlo: dual-sided pins vs all-front proxy",
		Header: []string{"variant", "mean WNS ps", "sigma ps",
			"P50 ps", "P95 ps", "P99.7 ps", "mean TNS ps"},
		Notes: []string{fmt.Sprintf(
			"%d samples, overlay sigma %g nm/side, cap sens %g/nm, parasitic sigma %g, floor %g fF, seed %d",
			opt.Samples, opt.SigmaNm, opt.CapSensPerNm, opt.ParasiticSigma, opt.FloorFF, opt.Seed)},
	}
	var sig [2]float64
	for i, v := range []struct {
		name string
		f    *core.Flow
	}{{"FP0.5BP0.5", leader}, {"FP1.0 proxy", proxy}} {
		if err := v.f.RunToCtx(ctx, core.StageSTA); err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		basis, err := v.f.VariationBasis()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		sum, err := variation.Study(ctx, basis, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		sig[i] = sum.SigmaWNSPs
		t.Rows = append(t.Rows, []string{
			v.name, f2(sum.MeanWNSPs), f2(sum.SigmaWNSPs),
			f2(sum.P50WNSPs), f2(sum.P95WNSPs), f2(sum.P997WNSPs), f2(sum.MeanTNSPs),
		})
	}
	if sig[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"WNS sigma, dual-sided vs all-front: %+.1f%% (positive = dual-sided pins are more overlay-sensitive)",
			100*(sig[0]/sig[1]-1)))
	}
	return t, nil
}

// experimentIDs is the report order of the experiment registry.
var experimentIDs = []string{
	"fig04", "table1", "table2", "fig08a", "fig08b", "fig08c",
	"fig09", "fig10", "fig11", "table3", "fig12", "fig13", "mc",
}

// ExperimentIDs lists every experiment id in report order.
func ExperimentIDs() []string {
	out := make([]string, len(experimentIDs))
	copy(out, experimentIDs)
	return out
}

// Experiment returns the runner of the experiment with the given id, or
// false when the id is unknown. Both cmd/ffetexp and the serve daemon's
// /v1/exp endpoint dispatch through this registry.
func (s *Suite) Experiment(id string) (func() (*Table, error), bool) {
	switch id {
	case "fig04":
		return func() (*Table, error) { return s.Fig04(), nil }, true
	case "table1":
		return func() (*Table, error) { return s.Table1(), nil }, true
	case "table2":
		return func() (*Table, error) { return s.Table2(), nil }, true
	case "fig08a":
		return s.Fig08a, true
	case "fig08b":
		return s.Fig08b, true
	case "fig08c":
		return s.Fig08c, true
	case "fig09":
		return s.Fig09, true
	case "fig10":
		return s.Fig10, true
	case "fig11":
		return s.Fig11, true
	case "table3":
		return s.Table3, true
	case "fig12":
		return s.Fig12, true
	case "fig13":
		return s.Fig13, true
	case "mc":
		return s.VariationMC, true
	}
	return nil, false
}
