package core

import (
	"sync"
	"testing"

	"repro/internal/tech"
)

// TestFlowForkIncrementalSTA pins the StageSTA checkpoint mechanics: a
// fully-run parent persists its timing engine, a child forked at
// StagePartition inherits an independent clone plus the parent's RC
// baseline, and the child's own STA takes the incremental cone path —
// while producing the same result a scratch run does (the byte-level
// comparison lives in TestFlowForkMatchesScratch; here we assert the
// mechanism actually engaged, so that test keeps meaning something).
func TestFlowForkIncrementalSTA(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}
	if parent.staEng == nil || parent.baseRC == nil {
		t.Fatal("completed parent must persist its timing engine and RC baseline")
	}
	fullCells := parent.staEng.Stats().RecomputedCells
	if fullCells == 0 {
		t.Fatal("parent's full analysis recomputed nothing?")
	}

	child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.16 })
	if err != nil {
		t.Fatal(err)
	}
	if child.staEng == nil {
		t.Fatal("child resuming at StagePartition did not inherit a timing basis")
	}
	if child.staEng == parent.staEng {
		t.Fatal("child must re-time on a clone, never the parent's own engine")
	}
	if _, err := child.Run(); err != nil {
		t.Fatal(err)
	}
	if !child.haveDirty {
		t.Fatal("child's StageExtract did not report a changed-net set")
	}
	if st := child.staEng.Stats(); !st.Incremental {
		t.Fatalf("child's STA did not take the incremental path: %+v", st)
	}

	// A delta that leaves routing untouched (MaxDRVs is only a validity
	// threshold) re-runs route -> extract deterministically, so the
	// re-extracted view is bit-identical: the diff must come back empty
	// and the re-timing must recompute no cones at all.
	clean, err := parent.Fork(func(c *FlowConfig) { c.MaxDRVs = 500 })
	if err != nil {
		t.Fatal(err)
	}
	if clean.NextStage() != StageRoute {
		t.Fatalf("MaxDRVs fork resumes at %v, want %v", clean.NextStage(), StageRoute)
	}
	if _, err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	if !clean.haveDirty || len(clean.dirtyRC) != 0 {
		t.Fatalf("identical re-route must diff clean: haveDirty=%v dirty=%d",
			clean.haveDirty, len(clean.dirtyRC))
	}
	if st := clean.staEng.Stats(); !st.Incremental || st.RecomputedCells != 0 || st.RecomputedEndpoints != 0 {
		t.Fatalf("clean re-route still recomputed cones: %+v", st)
	}
	// Timing must nonetheless be exactly the parent's.
	if clean.res.MinPeriodPs != parent.res.MinPeriodPs ||
		clean.res.AchievedFreqGHz != parent.res.AchievedFreqGHz {
		t.Fatalf("clean re-time drifted: %.17g vs %.17g",
			clean.res.MinPeriodPs, parent.res.MinPeriodPs)
	}

	// A grandchild forks off the child's own post-STA state, not the
	// original parent's.
	grand, err := child.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.3 })
	if err != nil {
		t.Fatal(err)
	}
	if grand.staEng == nil || grand.staEng == child.staEng {
		t.Fatal("grandchild must inherit a fresh clone of the child's engine")
	}
	if _, err := grand.Run(); err != nil {
		t.Fatal(err)
	}
	if st := grand.staEng.Stats(); !st.Incremental {
		t.Fatalf("grandchild STA not incremental: %+v", st)
	}

	// The parent, by contrast, must not have been handed anyone's dirty
	// state: its session-level flags stay those of a base run.
	if parent.haveDirty {
		t.Fatal("parent picked up a child's dirty set")
	}

	// A child that will never re-time (its delta starts after StageSTA)
	// shares the parent's engine read-only instead of paying for a
	// clone — and still passes a valid basis to its own forks.
	pwr, err := parent.Fork(func(c *FlowConfig) { c.Power.Activity = 0.21 })
	if err != nil {
		t.Fatal(err)
	}
	if pwr.NextStage() != StagePower {
		t.Fatalf("power fork resumes at %v, want %v", pwr.NextStage(), StagePower)
	}
	if pwr.staEng != parent.staEng {
		t.Fatal("post-STA fork must share the engine, not clone it")
	}
	if _, err := pwr.Run(); err != nil {
		t.Fatal(err)
	}
	pg, err := pwr.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.04 })
	if err != nil {
		t.Fatal(err)
	}
	if pg.staEng == nil || pg.staEng == parent.staEng {
		t.Fatal("re-timing fork off a shared-engine child must clone")
	}
	if _, err := pg.Run(); err != nil {
		t.Fatal(err)
	}
	if st := pg.staEng.Stats(); !st.Incremental {
		t.Fatalf("grandchild of shared-engine child not incremental: %+v", st)
	}
}

// TestFlowForkMidPipelineBasis is the regression test for the stale-basis
// bug: a child that has re-extracted (new netRC) but not yet re-timed
// still holds an engine state computed under the parent's RC view, so a
// grandchild forked at that exact moment must diff against the parent's
// view, not the child's newer one — or cones dirtied by the child's own
// delta would silently keep the grandparent's arrivals.
func TestFlowForkMidPipelineBasis(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}

	child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.16 })
	if err != nil {
		t.Fatal(err)
	}
	// Stop exactly between StageExtract and StageSTA: child.netRC is the
	// BP0.16 view, but the inherited engine state is still over BP0.50.
	if err := child.RunTo(StageExtract); err != nil {
		t.Fatal(err)
	}
	grand, err := child.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.3 })
	if err != nil {
		t.Fatal(err)
	}
	if grand.staEng == nil || grand.baseRC == nil {
		t.Fatal("grandchild lost the timing basis")
	}
	if &grand.baseRC[0] != &parent.netRC[0] {
		t.Fatal("grandchild basis must be the view the engine state was timed under (the parent's), not the child's newer extraction")
	}
	if _, err := grand.Run(); err != nil {
		t.Fatal(err)
	}
	if st := grand.staEng.Stats(); !st.Incremental {
		t.Fatalf("grandchild STA not incremental: %+v", st)
	}
	scratchCfg := base
	scratchCfg.BackPinFraction = 0.3
	want := scratchRun(t, smallCore(t, ffetLib), scratchCfg)
	if ga, wa := flowArtifact(t, grand), flowArtifact(t, want); ga != wa {
		t.Errorf("mid-pipeline fork drifted from scratch:\n--- scratch\n%s--- forked\n%s", wa, ga)
	}
	// The halted-at-extract child can still finish correctly afterwards.
	if _, err := child.Run(); err != nil {
		t.Fatal(err)
	}
	scratchCfg.BackPinFraction = 0.16
	want = scratchRun(t, smallCore(t, ffetLib), scratchCfg)
	if ga, wa := flowArtifact(t, child), flowArtifact(t, want); ga != wa {
		t.Errorf("resumed child drifted from scratch:\n--- scratch\n%s--- forked\n%s", wa, ga)
	}
}

// TestConcurrentForkedRetiming is the race test for the clone-on-fork
// contract: several children forked off one completed parent re-time
// concurrently (each on its own engine clone, sharing only the immutable
// graph tables and the read-only netlist), and every result must match a
// from-scratch run of the same config. Run with -race to make the
// isolation claim meaningful.
func TestConcurrentForkedRetiming(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow test in -short mode")
	}
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}

	bps := []float64{0.4, 0.3, 0.16, 0.04}
	children := make([]*Flow, len(bps))
	errs := make([]error, len(bps))
	var wg sync.WaitGroup
	for i, bp := range bps {
		wg.Add(1)
		go func(i int, bp float64) {
			defer wg.Done()
			child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := child.Run(); err != nil {
				errs[i] = err
				return
			}
			if st := child.staEng.Stats(); !st.Incremental {
				t.Errorf("bp=%.2f: concurrent child not incremental: %+v", bp, st)
			}
			children[i] = child
		}(i, bp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bp=%.2f: %v", bps[i], err)
		}
	}
	for i, bp := range bps {
		cfg := base
		cfg.BackPinFraction = bp
		want := scratchRun(t, smallCore(t, ffetLib), cfg)
		if ga, wa := flowArtifact(t, children[i]), flowArtifact(t, want); ga != wa {
			t.Errorf("bp=%.2f: concurrent forked run differs from scratch:\n--- scratch\n%s--- forked\n%s",
				bp, wa, ga)
		}
	}
}
