package core

import (
	"sync"
	"testing"

	"repro/internal/tech"
)

// TestFlowForkMidPipeline forks a grandchild off a child stopped between
// StageExtract and StageSTA — the child holds its own extraction but no
// timing yet — and requires both the grandchild and the child, resumed
// afterwards, to match scratch runs exactly.
func TestFlowForkMidPipeline(t *testing.T) {
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
	// Stop exactly between StageExtract and StageSTA.
	if err := child.RunTo(StageExtract); err != nil {
		t.Fatal(err)
	}
	grand, err := child.Fork(func(c *FlowConfig) { c.BackPinFraction = 0.3 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grand.Run(); err != nil {
		t.Fatal(err)
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

// TestConcurrentForkedRetiming is the race test for forks sharing a
// completed parent: several children forked at StagePartition re-run the
// back end concurrently over the parent's read-only netlist and prefix
// artifacts, and every result must match a from-scratch run of the same
// config. Run with -race to make the isolation claim meaningful.
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
