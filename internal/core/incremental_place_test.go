package core

import (
	"sync"
	"testing"

	"repro/internal/cts"
	"repro/internal/tech"
)

// TestFlowForkIncrementalPlacement pins the StagePlace checkpoint
// mechanics for placement: a checkpointed session retains the
// legalization + refinement bases, children forked at StageCTS share
// them by pointer, and their StageCTS goes through the delta legalizer —
// while producing results byte-identical to scratch runs with the fast
// path disabled (so SetIncrementalPlacement(false) really is the same
// flow, and the identity suite keeps meaning something).
func TestFlowForkIncrementalPlacement(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	base.Seed = 1
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(StagePlace); err != nil {
		t.Fatal(err)
	}
	if parent.placeBasis == nil || parent.refineBasis == nil {
		t.Fatal("checkpointed session did not retain placement bases at StagePlace")
	}

	for _, mf := range []int{12, 8, 20} {
		child, err := parent.Fork(func(c *FlowConfig) {
			c.CTS = cts.Options{MaxLeafFanout: mf, BufferDrive: 4}
		})
		if err != nil {
			t.Fatal(err)
		}
		if child.next != StageCTS {
			t.Fatalf("CTS fork resumes at %v, want %v", child.next, StageCTS)
		}
		if child.placeBasis != parent.placeBasis || child.refineBasis != parent.refineBasis {
			t.Fatal("StageCTS fork must share the parent's placement bases")
		}
		if _, err := child.Run(); err != nil {
			t.Fatal(err)
		}
		if child.placeDeltaHits != 1 {
			t.Fatalf("fanout %d: child took the delta path %d times, want 1", mf, child.placeDeltaHits)
		}

		cfg := base
		cfg.CTS = cts.Options{MaxLeafFanout: mf, BufferDrive: 4}
		scratch, err := NewFlow(smallCore(t, ffetLib), cfg)
		if err != nil {
			t.Fatal(err)
		}
		scratch.SetIncrementalPlacement(false)
		if _, err := scratch.Run(); err != nil {
			t.Fatal(err)
		}
		if scratch.placeBasis != nil || scratch.placeDeltaHits != 0 {
			t.Fatal("SetIncrementalPlacement(false) must force the full replay path")
		}
		if ga, wa := flowArtifact(t, child), flowArtifact(t, scratch); ga != wa {
			t.Errorf("fanout %d: incremental fork differs from full-path scratch run:\n--- scratch\n%s--- forked\n%s",
				mf, wa, ga)
		}
	}
}

// TestFlowForkConcurrentIncrementalPlacement runs sibling CTS forks
// concurrently off one shared placement basis (the sweep-leader shape;
// meaningful under -race: the bases are shared read-only) and checks each
// against a sequential scratch run with the fast path off.
func TestFlowForkConcurrentIncrementalPlacement(t *testing.T) {
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	base.Seed = 2
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.RunTo(StagePlace); err != nil {
		t.Fatal(err)
	}

	fanouts := []int{24, 16, 12, 8}
	children := make([]*Flow, len(fanouts))
	for i, mf := range fanouts {
		mf := mf
		child, err := parent.Fork(func(c *FlowConfig) {
			c.CTS = cts.Options{MaxLeafFanout: mf, BufferDrive: 4}
		})
		if err != nil {
			t.Fatal(err)
		}
		children[i] = child
	}
	var wg sync.WaitGroup
	errs := make([]error, len(children))
	for i, child := range children {
		wg.Add(1)
		go func(i int, child *Flow) {
			defer wg.Done()
			_, errs[i] = child.Run()
		}(i, child)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fanout %d: %v", fanouts[i], err)
		}
	}

	for i, mf := range fanouts {
		if children[i].placeDeltaHits != 1 {
			t.Errorf("fanout %d: delta path not taken", mf)
		}
		cfg := base
		cfg.CTS = cts.Options{MaxLeafFanout: mf, BufferDrive: 4}
		scratch, err := NewFlow(smallCore(t, ffetLib), cfg)
		if err != nil {
			t.Fatal(err)
		}
		scratch.SetIncrementalPlacement(false)
		if _, err := scratch.Run(); err != nil {
			t.Fatal(err)
		}
		if ga, wa := flowArtifact(t, children[i]), flowArtifact(t, scratch); ga != wa {
			t.Errorf("fanout %d: concurrent incremental fork differs from scratch:\n--- scratch\n%s--- forked\n%s",
				mf, wa, ga)
		}
	}
}
