package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/def"
	"repro/internal/tech"
	"repro/internal/variation"
)

// TestFlowRunToMatchesGolden drives the staged pipeline checkpoint by
// checkpoint (RunTo at several stage boundaries, then completion) over
// every golden config and holds the assembled result to the same
// artifacts the monolithic RunFlow is locked to: the stage split must
// not be observable in a single byte of DEF text or any metric ULP.
func TestFlowRunToMatchesGolden(t *testing.T) {
	for _, gc := range goldenConfigs {
		t.Run(gc.name, func(t *testing.T) {
			lib := ffetLib
			if gc.arch == tech.CFET {
				lib = cfetLib
			}
			nl := smallCore(t, lib)
			cfg := DefaultFlowConfig(gc.pattern, gc.tgt, gc.util)
			cfg.BackPinFraction = gc.bp
			cfg.Seed = gc.seed
			f, err := NewFlow(nl, cfg)
			if err != nil {
				t.Fatalf("NewFlow: %v", err)
			}
			// Resume in chunks across the two netlist-mutation
			// checkpoints and the analysis tail.
			for _, stop := range []Stage{StagePowerplan, StageCTS, StageRoute, StagePower} {
				if err := f.RunTo(stop); err != nil {
					t.Fatalf("RunTo(%v): %v", stop, err)
				}
			}
			if got := f.NextStage(); int(got) != NumStages {
				t.Fatalf("NextStage = %v after full run", got)
			}
			got := flowArtifact(t, f)
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+gc.name+".txt"))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Errorf("staged pipeline drifted from golden:\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestFlowRunToIsIdempotent locks the checkpoint contract: re-running to
// an already-reached stage must execute nothing (the working netlist and
// stage outputs are the same objects).
func TestFlowRunToIsIdempotent(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	cfg.Seed = 4
	f, err := NewFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}
	work, fp := f.work, f.fp
	if err := f.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}
	if f.work != work || f.fp != fp {
		t.Error("RunTo to a reached stage re-executed work")
	}
	if !f.Done(StageCTS) || f.Done(StagePartition) {
		t.Errorf("Done reporting wrong: cts=%v partition=%v", f.Done(StageCTS), f.Done(StagePartition))
	}
	if got := f.NextStage(); got != StagePartition {
		t.Fatalf("NextStage = %v, want %v", got, StagePartition)
	}
}

// forkCase is one config mutation and the stage the fork must resume at.
// A stopped case forks a parent run only up to the stage before resume:
// no config delta first reaches StageCTS or StagePower, so a rename
// resumes there only because the parent stopped there.
type forkCase struct {
	name    string
	mutate  func(*FlowConfig)
	resume  Stage
	stopped bool
}

func rename(c *FlowConfig) { c.Name = "renamed" }

var forkCases = []forkCase{
	{"backpins", func(c *FlowConfig) { c.BackPinFraction = 0.16 }, StagePartition, false},
	{"util", func(c *FlowConfig) { c.Utilization = 0.68 }, StageFloorplan, false},
	{"pattern", func(c *FlowConfig) { c.Pattern = tech.Pattern{Front: 8, Back: 4} }, StagePowerplan, false},
	{"seed", func(c *FlowConfig) { c.Seed = 7 }, StagePlace, false},
	// Resuming at StageCTS is the one fork path that consumes the
	// post-global-placement checkpoint (placeSnap.Snapshot).
	{"cts", rename, StageCTS, true},
	{"target", func(c *FlowConfig) { c.TargetFreqGHz = 2.0 }, StageSynth, false},
	{"maxdrvs", func(c *FlowConfig) { c.MaxDRVs = 1 }, StageRoute, false},
	{"route", func(c *FlowConfig) { c.Route.HistoryGain = 2 }, StageRoute, false},
	// Resuming after StageSTA shares the parent's timing engine read-only,
	// which must still serve as a Monte Carlo basis.
	{"power", rename, StagePower, true},
	{"identity", rename, Stage(NumStages), false},
}

// TestFlowForkMatchesScratch is the fork-correctness contract: for every
// kind of config delta, a session forked off a fully-run parent must
// produce a result byte-identical (flowArtifact: every metric at full
// precision + DEF SHA-256s) to a from-scratch run of the mutated config
// — and must actually resume at the documented stage, sharing the
// parent's prefix objects.
func TestFlowForkMatchesScratch(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	base.Seed = 1
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}

	for _, fc := range forkCases {
		t.Run(fc.name, func(t *testing.T) {
			parent := parent
			if fc.stopped {
				var err error
				if parent, err = NewFlow(nl, base); err != nil {
					t.Fatal(err)
				}
				if err := parent.RunTo(fc.resume - 1); err != nil {
					t.Fatal(err)
				}
			}
			child, err := parent.Fork(fc.mutate)
			if err != nil {
				t.Fatal(err)
			}
			if child.next != fc.resume && !(int(fc.resume) == NumStages && int(child.next) == NumStages) {
				t.Fatalf("fork resumes at %v, want %v", child.next, fc.resume)
			}
			// Prefix objects must be shared, not recomputed.
			if fc.resume > StageFloorplan && child.fp != parent.fp {
				t.Error("floorplan not shared across fork")
			}
			if fc.resume > StageCTS && child.work != parent.work {
				t.Error("post-CTS netlist not shared across fork")
			}
			if fc.resume <= StageCTS && fc.resume > StageSynth && child.work == parent.work {
				t.Error("fork into a mutating stage must not share the live netlist")
			}
			if _, err := child.Run(); err != nil {
				t.Fatal(err)
			}
			if fc.resume > StageSTA {
				checkSharedVariationBasis(t, parent, child)
			}

			scratchCfg := base
			fc.mutate(&scratchCfg)
			want := scratchRun(t, smallCore(t, ffetLib), scratchCfg)
			if ga, wa := flowArtifact(t, child), flowArtifact(t, want); ga != wa {
				t.Errorf("forked run differs from scratch run:\n--- scratch\n%s--- forked\n%s", wa, ga)
			}
		})
	}
}

// checkSharedVariationBasis requires a child forked after StageSTA to
// hand out the parent's engine and RC view as its Monte Carlo basis, and
// a study over it to match the parent's own.
func checkSharedVariationBasis(t *testing.T, parent, child *Flow) {
	t.Helper()
	cb, err := child.VariationBasis()
	if err != nil {
		t.Fatalf("VariationBasis on a post-STA fork: %v", err)
	}
	pb, err := parent.VariationBasis()
	if err != nil {
		t.Fatal(err)
	}
	if cb.Engine != pb.Engine || &cb.NetRC[0] != &pb.NetRC[0] {
		t.Fatal("post-STA fork must share the parent's engine and RC view")
	}
	opt := variation.Options{Samples: 64, Workers: 1, Seed: 3}
	cs, err := variation.Study(context.Background(), cb, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := variation.Study(context.Background(), pb, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs, ps) {
		t.Errorf("study over the fork's basis differs from the parent's:\n%+v\n%+v", cs, ps)
	}
}

// TestFlowForkChain exercises the sweep topology exp uses: a root run to
// StageSynth, per-utilization parents forked to StageCTS, per-fraction
// children — two levels of sharing — all byte-identical to scratch.
func TestFlowForkChain(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0
	root, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.RunTo(StageSynth); err != nil {
		t.Fatal(err)
	}
	for _, util := range []float64{0.70, 0.72} {
		mid, err := root.Fork(func(c *FlowConfig) { c.Utilization = util })
		if err != nil {
			t.Fatal(err)
		}
		if err := mid.RunTo(StageCTS); err != nil {
			t.Fatal(err)
		}
		for _, bp := range []float64{0.5, 0.16} {
			leaf, err := mid.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
			if err != nil {
				t.Fatal(err)
			}
			if _, err := leaf.Run(); err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Utilization = util
			cfg.BackPinFraction = bp
			want := scratchRun(t, smallCore(t, ffetLib), cfg)
			if ga, wa := flowArtifact(t, leaf), flowArtifact(t, want); ga != wa {
				t.Errorf("util %.2f bp %.2f: chained fork differs from scratch:\n--- scratch\n%s--- forked\n%s",
					util, bp, wa, ga)
			}
		}
	}
}

// TestFlowForkParentUnaffected runs children off a parent mid-pipeline,
// then finishes the parent and holds it to its golden artifact: forking
// must never perturb the session being forked.
func TestFlowForkParentUnaffected(t *testing.T) {
	gc := goldenConfigs[0] // ffet_fm12bm12_bp50
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(gc.pattern, gc.tgt, gc.util)
	cfg.BackPinFraction = gc.bp
	cfg.Seed = gc.seed
	parent, err := NewFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}
	for _, bp := range []float64{0.04, 0.3} {
		child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := child.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}
	got := flowArtifact(t, parent)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_"+gc.name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("parent drifted from golden after forking children:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestFlowForkFromHaltedParent covers invalid-run inheritance: a parent
// halted by an infeasible powerplan hands the halt to children whose
// delta only touches later stages, while a delta at or before the
// halting stage re-runs it — both matching scratch runs exactly.
func TestFlowForkFromHaltedParent(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.92)
	cfg.BackPinFraction = 0.5
	parent, err := NewFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := parent.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid || res.Reason == "" {
		t.Fatalf("92%% utilization should be tap-infeasible, got valid=%v reason=%q", res.Valid, res.Reason)
	}
	if _, _, _, err := parent.DEF(); err == nil {
		t.Error("DEF on a run halted at powerplan must fail")
	}

	// Delta after the halting stage: the child inherits the halt.
	child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.16 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.Run(); err != nil {
		t.Fatal(err)
	}
	scratchCfg := cfg
	scratchCfg.BackPinFraction = 0.16
	want := scratchRun(t, smallCore(t, ffetLib), scratchCfg)
	if ga, wa := flowArtifact(t, child), flowArtifact(t, want); ga != wa {
		t.Errorf("halted fork differs from scratch:\n--- scratch\n%s--- forked\n%s", wa, ga)
	}

	// Delta at an earlier stage: the child re-runs and becomes valid.
	fixed, err := parent.Fork(func(c *FlowConfig) { c.Utilization = 0.70 })
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fixed.Run()
	if err != nil {
		t.Fatal(err)
	}
	fixedCfg := cfg
	fixedCfg.Utilization = 0.70
	fwant := scratchRun(t, smallCore(t, ffetLib), fixedCfg)
	if !fres.Valid {
		t.Errorf("lowered-utilization fork still invalid: %q", fres.Reason)
	}
	if ga, wa := flowArtifact(t, fixed), flowArtifact(t, fwant); ga != wa {
		t.Errorf("recovered fork differs from scratch:\n--- scratch\n%s--- forked\n%s", wa, ga)
	}
}

// TestFlowStageTimes checks the per-stage timing satellite: a complete
// run records a time for every stage, and a forked child inherits the
// prefix entries it did not re-run.
func TestFlowStageTimes(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	cfg.Seed = 4
	f, err := NewFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s := StageSynth; int(s) < NumStages; s++ {
		if res.StageTimes[s] <= 0 {
			t.Errorf("stage %v recorded no time", s)
		}
	}
	child, err := f.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.3 })
	if err != nil {
		t.Fatal(err)
	}
	cres, err := child.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s := StageSynth; s < StagePartition; s++ {
		if cres.StageTimes[s] != res.StageTimes[s] {
			t.Errorf("stage %v time not inherited across fork", s)
		}
	}
}

// TestFlowForkRejectsBadConfig ensures a fork mutation passes the same
// validation as a fresh session.
func TestFlowForkRejectsBadConfig(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	cfg.BackPinFraction = 0.5
	f, err := NewFlow(nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fork(func(c *FlowConfig) { c.Pattern = tech.Pattern{Front: 12} }); err == nil {
		t.Fatal("fork to a frontside-only pattern with backside pins must be rejected")
	}
}

// renderDEF concatenates the session's front, back and merged DEF texts.
func renderDEF(f *Flow) (string, error) {
	front, back, merged, err := f.DEF()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, d := range []*def.Design{front, back, merged} {
		if err := d.Write(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// TestFlowDEFNeedsRoute pins when a session has a layout to render: not
// before StageRoute completes (TestFlowForkFromHaltedParent covers a run
// halted at powerplan), and once routed, the same text at every later
// checkpoint.
func TestFlowDEFNeedsRoute(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	cfg.Seed = 4
	f, err := NewFlow(smallCore(t, ffetLib), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunTo(StagePartition); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.DEF(); err == nil {
		t.Fatal("DEF before StageRoute must fail")
	}
	if err := f.RunTo(StageRoute); err != nil {
		t.Fatal(err)
	}
	atRoute, err := renderDEF(f)
	if err != nil {
		t.Fatalf("DEF after StageRoute: %v", err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if done, err := renderDEF(f); err != nil || done != atRoute {
		t.Errorf("completed session renders a different layout than at StageRoute (err %v)", err)
	}
}

// TestFlowDEFConcurrentForks renders layouts concurrently on sibling
// forks of one placed checkpoint while the parent finishes its own
// pipeline: re-routed siblings share the netlist, floorplan and powerplan
// (tap components included, first rendered here), and renamed forks of
// each share its routed trees too. Every concurrent render must equal
// a serial render of the same session afterwards. Run with -race
// -count=10.
func TestFlowDEFConcurrentForks(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	parent, err := NewFlow(smallCore(t, ffetLib), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}
	var sibs []*Flow
	for _, bp := range []float64{0.5, 0.16} {
		child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := child.Run(); err != nil {
			t.Fatal(err)
		}
		sibs = append(sibs, child)
		for _, name := range []string{"a", "b"} {
			g, err := child.Fork(func(c *FlowConfig) { c.Name = name })
			if err != nil {
				t.Fatal(err)
			}
			sibs = append(sibs, g)
		}
	}

	const perSib = 2
	got := make([]string, len(sibs)*perSib)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := parent.Run(); err != nil {
			t.Errorf("parent run: %v", err)
		}
	}()
	for i, s := range sibs {
		for r := range perSib {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if got[i*perSib+r], err = renderDEF(s); err != nil {
					t.Errorf("sibling %d: %v", i, err)
				}
			}()
		}
	}
	wg.Wait()
	for i, s := range sibs {
		want, err := renderDEF(s)
		if err != nil {
			t.Fatal(err)
		}
		for r := range perSib {
			if got[i*perSib+r] != want {
				t.Errorf("sibling %d: concurrent render differs from the serial one", i)
			}
		}
	}
}
