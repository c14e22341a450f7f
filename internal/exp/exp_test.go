package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(Quick)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig04TableShape(t *testing.T) {
	s := quickSuite(t)
	tab := s.Fig04()
	if len(tab.Rows) != 28 {
		t.Fatalf("rows = %d, want 28 cells", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(buf.String(), "DFFD1") {
		t.Error("printed table missing DFFD1")
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "cell,FFET um2,CFET um2,gain %") {
		t.Errorf("csv header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

func TestTable1Shape(t *testing.T) {
	s := quickSuite(t)
	tab := s.Table1()
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 KPIs", len(tab.Rows))
	}
	// Leakage row must be all-zero diffs.
	for _, r := range tab.Rows {
		if r[0] == "Leakage power" {
			for _, c := range r[1:] {
				if c != "+0.0%" {
					t.Errorf("leakage diff = %s, want +0.0%%", c)
				}
			}
		}
	}
}

func TestTable2HasBothStacks(t *testing.T) {
	s := quickSuite(t)
	tab := s.Table2()
	found := map[string]bool{}
	for _, r := range tab.Rows {
		found[r[0]] = true
	}
	for _, want := range []string{"Poly", "BPR", "FM12", "BM0", "BM12"} {
		if !found[want] {
			t.Errorf("table2 missing layer %s", want)
		}
	}
}

// TestFig08bSingleRun exercises one full-flow experiment end to end (the
// cheapest flow-backed figure).
func TestFig08bSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run in -short mode")
	}
	s := quickSuite(t)
	tab, err := s.Fig08b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Die dimensions must favor FFET (smaller cells).
	var cfetArea, ffetArea string
	for _, r := range tab.Rows {
		if r[0] == "core area (um2)" {
			cfetArea, ffetArea = r[1], r[2]
		}
	}
	if cfetArea == "" || ffetArea == "" {
		t.Fatal("missing area row")
	}
	if !(ffetArea < cfetArea) { // numeric strings, same width class
		t.Logf("areas: cfet=%s ffet=%s", cfetArea, ffetArea)
	}

	// The "power stripes" row counts the BSPDN stripes each run's
	// powerplan laid out (not the VDD/VSS special nets). The table's two
	// runs are the suite's only memo entries; re-plan each independently.
	var stripes []string
	for _, r := range tab.Rows {
		if r[0] == "power stripes" {
			stripes = r[1:]
		}
	}
	if len(stripes) != 2 || len(s.results) != 2 {
		t.Fatalf("stripe row %q over %d memoized runs, want 2 and 2", stripes, len(s.results))
	}
	for _, res := range s.results {
		f, err := core.NewFlow(s.Netlist(res.Arch), res.Config)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RunTo(core.StagePowerplan); err != nil {
			t.Fatal(err)
		}
		want := len(f.Powerplan().Stripes)
		col := 1 // stripes holds the CFET then the FFET column
		if res.Arch == tech.CFET {
			col = 0
		}
		if res.PowerStripes != want || stripes[col] != fmt.Sprint(want) {
			t.Errorf("%v: PowerStripes %d, row %q, want %d stripes", res.Arch, res.PowerStripes, stripes[col], want)
		}
	}
}

func TestRunMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run in -short mode")
	}
	s := quickSuite(t)
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.70)
	cfg.BackPinFraction = 0.5
	r1, err := s.Run(tech.FFET, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(tech.FFET, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical configs must return the memoized result (same *FlowResult pointer)")
	}
	// A different point must miss the memo and produce a fresh result.
	cfg.Seed++
	r3, err := s.Run(tech.FFET, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("different configs must not share a memo entry")
	}
}

// TestParallelSweepMatchesSerial locks the parallel-sweep contract: the
// bounded goroutine pool must be purely a wall-clock optimization. Two
// fresh suites — one forced serial, one at full parallelism — run the
// same multi-point sweep (Fig. 10's utilization sweep, the cheapest
// table with several flow-backed points) and the rendered table text and
// CSV must be byte-identical.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow sweep in -short mode")
	}
	render := func(maxParallel int) (string, string) {
		s := quickSuite(t)
		s.MaxParallel = maxParallel
		tab, err := s.Fig10()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.Print(&buf)
		return buf.String(), tab.CSV()
	}
	serialTxt, serialCSV := render(1)
	parTxt, parCSV := render(0)
	if serialTxt != parTxt {
		t.Errorf("parallel sweep table text diverges from serial:\n--- serial\n%s--- parallel\n%s",
			serialTxt, parTxt)
	}
	if serialCSV != parCSV {
		t.Errorf("parallel sweep CSV diverges from serial")
	}
}

// sweepTable renders a Fig11-style table over a mixed
// utilization × back-pin-fraction × arch sweep — points sharing a synth
// prefix, points sharing a placed-and-clocked prefix, and a lone CFET
// point — exercising every level of the fork tree. The siblings of the
// 70% group carry a back-pin delta, a validity-threshold delta (MaxDRVs)
// and a router-option delta; each forks the group's prefix alongside the
// leader and runs partition onward.
func sweepTable(t *testing.T, s *Suite) *Table {
	t.Helper()
	var specs []Spec
	for _, util := range []float64{0.70, 0.72} {
		for _, bp := range []float64{0.5, 0.16} {
			cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, util)
			cfg.BackPinFraction = bp
			specs = append(specs, Spec{tech.FFET, cfg})
		}
	}
	drvs := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	drvs.BackPinFraction = 0.5
	drvs.MaxDRVs = 500
	specs = append(specs, Spec{tech.FFET, drvs})
	routePt := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	routePt.BackPinFraction = 0.5
	routePt.Route.HistoryGain = 2
	specs = append(specs, Spec{tech.FFET, routePt})
	specs = append(specs, Spec{tech.CFET, core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, 0.70)})
	// Repeat the first point: memo dedup must hand back the same result.
	specs = append(specs, specs[0])
	rs, err := s.runAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	tab := &Table{
		ID:     "forktest",
		Title:  "fork-identity sweep",
		Header: []string{"arch", "util %", "bp", "freq GHz", "power mW", "hpwl um", "wl F um", "wl B um", "drv", "valid"},
	}
	for i, r := range rs {
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%v", specs[i].Arch),
			f1(r.Config.Utilization * 100),
			f2(r.Config.BackPinFraction),
			f3s(r.AchievedFreqGHz), f3s(r.PowerUW / 1000),
			f1(r.HPWLUm), f1(r.WirelenFrontUm), f1(r.WirelenBackUm),
			fmt.Sprintf("%d", r.DRVs()),
			fmt.Sprintf("%v", r.Valid),
		})
	}
	return tab
}

// TestForkedSweepMatchesScratch locks the fork-reuse contract at the
// experiment level: a sweep fanned out as forked staged sessions
// (shared synthesis root, shared placed-and-clocked prefixes) must
// render byte-identical tables to a suite that runs every point from
// scratch.
func TestForkedSweepMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow sweep in -short mode")
	}
	render := func(disableSharing bool) (string, string, Report) {
		s := quickSuite(t)
		s.DisablePrefixSharing = disableSharing
		tab := sweepTable(t, s)
		var buf bytes.Buffer
		tab.Print(&buf)
		return buf.String(), tab.CSV(), s.Stats().Report
	}
	scratchTxt, scratchCSV, _ := render(true)
	forkedTxt, forkedCSV, rep := render(false)
	if scratchTxt != forkedTxt {
		t.Errorf("forked sweep table diverges from scratch:\n--- scratch\n%s--- forked\n%s",
			scratchTxt, forkedTxt)
	}
	if scratchCSV != forkedCSV {
		t.Errorf("forked sweep CSV diverges from scratch")
	}
	// Three prefix groups (FFET at 70% and 72% utilization, CFET): each
	// builds its prefix once and its other points — three at 70%, one at
	// 72% — fork that prefix alongside the leader. All three leaders
	// synthesize from their prefix; one target means no diff hop. The two
	// FFET prefixes share one synthesis root.
	want := Report{PrefixMisses: 3, PrefixHits: 4, FullSynthForks: 3, SynthRootMisses: 2, SynthRootHits: 1}
	if rep != want {
		t.Errorf("sweep report = %+v, want %+v", rep, want)
	}
}

// TestDiffChainSweep locks the frequency-axis chaining contract: a dense
// same-prefix target sweep routes its later group leaders through the
// synth-diff fork (the Stats counters prove it) while producing results
// identical to an unshared scratch suite at full float precision.
func TestDiffChainSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow sweep in -short mode")
	}
	specsFor := func() []Spec {
		var specs []Spec
		for _, tgt := range []float64{2.0, 2.005, 2.01} {
			cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, tgt, 0.70)
			cfg.BackPinFraction = 0.5
			specs = append(specs, Spec{tech.FFET, cfg})
		}
		return specs
	}
	render := func(disableSharing bool) (string, CacheStats) {
		s := quickSuite(t)
		s.DisablePrefixSharing = disableSharing
		rs, err := s.runAll(specsFor())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%.17g %.17g %.17g %.17g %.17g %d %v\n",
				r.AchievedFreqGHz, r.PowerUW, r.HPWLUm,
				r.WirelenFrontUm, r.WirelenBackUm, r.DRVs(), r.Valid)
		}
		return b.String(), s.Stats()
	}
	scratchTxt, scratchStats := render(true)
	chainTxt, chainStats := render(false)
	if scratchTxt != chainTxt {
		t.Errorf("diff-chained sweep diverges from scratch:\n--- scratch\n%s--- chained\n%s",
			scratchTxt, chainTxt)
	}
	if scratchStats.DiffForks != 0 || scratchStats.DiffFallbacks != 0 {
		t.Errorf("scratch suite must not chain: %+v", scratchStats)
	}
	if chainStats.FullSynthForks != 1 {
		t.Errorf("chain must synthesize exactly one root leader from scratch, got %+v", chainStats)
	}
	if got := chainStats.DiffForks + chainStats.DiffFallbacks; got != 2 {
		t.Errorf("chain must attempt 2 diff hops, got %d (%+v)", got, chainStats)
	}
	if chainStats.DiffForks == 0 {
		t.Errorf("no hop stayed on the diff path: %+v", chainStats)
	}
}

// TestDiffChainGapSplit pins the chain partitioning: targets further apart
// than DiffChainMaxRelGap must not be serialized into one chain — each
// cluster becomes its own full-synth leader and no diff hop is attempted
// across the gap.
func TestDiffChainGapSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow sweep in -short mode")
	}
	s := quickSuite(t)
	var specs []Spec
	for _, tgt := range []float64{1.0, 2.0} { // 100% apart >> 12% gap cap
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, tgt, 0.70)
		cfg.BackPinFraction = 0.5
		specs = append(specs, Spec{tech.FFET, cfg})
	}
	if _, err := s.runAll(specs); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FullSynthForks != 2 || st.DiffForks != 0 || st.DiffFallbacks != 0 {
		t.Errorf("far-apart targets must split into independent chains: %+v", st)
	}
}

// TestInvalidPointDoesNotPoisonClass guards the synth-root cache keying:
// a structurally invalid sweep point must fail its own runAll call but
// must not leave a cached error on its {arch, target, synth} class — a
// later sweep of valid configs in the same class has to succeed.
func TestInvalidPointDoesNotPoisonClass(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run in -short mode")
	}
	s := quickSuite(t)
	bad := core.DefaultFlowConfig(tech.Pattern{Front: 12}, 1.5, 0.70)
	bad.BackPinFraction = 0.5 // backside pins without backside layers
	if _, err := s.runAll([]Spec{{tech.FFET, bad}}); err == nil {
		t.Fatal("invalid point must fail its sweep")
	}
	good := core.DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	good.BackPinFraction = 0.5
	rs, err := s.runAll([]Spec{{tech.FFET, good}})
	if err != nil {
		t.Fatalf("valid sweep in the same synth class failed after an invalid point: %v", err)
	}
	if len(rs) != 1 || rs[0] == nil || rs[0].AchievedFreqGHz <= 0 {
		t.Fatal("valid sweep returned no usable result")
	}
}

// TestRunKeyPrecision guards the memo key against the float collision
// the old fmt.Sprintf("%.3f") key had: two configs 1e-4 apart in
// utilization must occupy distinct memo entries.
func TestRunKeyPrecision(t *testing.T) {
	a := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.7000)
	b := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.7001)
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, b) {
		t.Error("distinct utilizations collide on one memo key")
	}
	if MemoKey(tech.FFET, a) != MemoKey(tech.FFET, a) {
		t.Error("identical configs produce different keys")
	}
	if MemoKey(tech.FFET, a) == MemoKey(tech.CFET, a) {
		t.Error("arch not part of the key")
	}
	// Router options and MaxDRVs change results, so they must be keyed.
	c := a
	c.Route.GCellNm = 500
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, c) {
		t.Error("router options not part of the key")
	}
	d := a
	d.MaxDRVs = 1
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, d) {
		t.Error("MaxDRVs not part of the key")
	}
	// The cosmetic Name must not split memo entries.
	e := a
	e.Name = "renamed"
	if MemoKey(tech.FFET, a) != MemoKey(tech.FFET, e) {
		t.Error("Name must be excluded from the key")
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{
		Header: []string{"plain", "with,comma"},
		Rows: [][]string{
			{`say "hi"`, "line\nbreak"},
			{"ok", "also ok"},
		},
	}
	got := tab.CSV()
	want := "plain,\"with,comma\"\n\"say \"\"hi\"\"\",\"line\nbreak\"\nok,also ok\n"
	if got != want {
		t.Errorf("CSV() = %q, want %q", got, want)
	}
}

// TestVariationMCTable exercises the Monte Carlo overlay experiment end
// to end at quick scale: one leader flow, one back-pins-off fork, two
// studies. Both variants must produce a non-degenerate distribution.
func TestVariationMCTable(t *testing.T) {
	if testing.Short() {
		t.Skip("flow run in -short mode")
	}
	s := quickSuite(t)
	tab, err := s.VariationMC()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[2] == "0.00" {
			t.Errorf("variant %s: degenerate distribution (sigma %s)", r[0], r[2])
		}
	}
}
