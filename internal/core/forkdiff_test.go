package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/riscv"
	"repro/internal/tech"
)

// completedFlow builds and fully runs a session over nl.
func completedFlow(t *testing.T, cfg FlowConfig, scale string) *Flow {
	t.Helper()
	var f *Flow
	var err error
	if scale == "riscv" {
		nl, _, gerr := riscv.Generate(ffetLib, riscv.Config{Name: "diffbase", Registers: 16})
		if gerr != nil {
			t.Fatal(gerr)
		}
		f, err = NewFlow(nl, cfg)
	} else {
		f, err = NewFlow(smallCore(t, ffetLib), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res, err := f.Run(); err != nil {
		t.Fatal(err)
	} else if !res.Valid {
		t.Fatalf("base run invalid: %s", res.Reason)
	}
	return f
}

// diffVsScratch diff-forks parent under mutation, runs the child to
// completion and requires artifacts byte-identical to a scratch run of
// the mutated config (every FlowResult metric at full precision plus the
// DEF SHA-256s).
func diffVsScratch(t *testing.T, parent *Flow, mutate func(*FlowConfig)) (*Flow, *SynthDiffStats) {
	t.Helper()
	diffChild, st, err := parent.ForkSynthDiff(mutate)
	if err != nil {
		t.Fatalf("ForkSynthDiff: %v", err)
	}
	if _, err := diffChild.Run(); err != nil {
		t.Fatalf("diff child run: %v", err)
	}
	// The scratch arm is a one-shot run of the mutated config: nothing is
	// inherited from the parent.
	cfg := parent.Config()
	mutate(&cfg)
	scratch := scratchRun(t, parent.input, cfg)
	da, sa := flowArtifact(t, diffChild), flowArtifact(t, scratch)
	if da != sa {
		t.Errorf("diff fork diverged from scratch fork (stats %+v)\n--- diff\n%s--- scratch\n%s", st, da, sa)
	}
	return diffChild, st
}

// TestSynthDiffForkMatchesScratch is the tentpole property test: across
// neighboring-target pairs — resize-free, genuinely resized, chained,
// fallback-distance and cross-stage — the synth-diff fork's complete
// artifact set is byte-identical to a from-scratch fork's. (The
// structural gate's fallback is covered by TestSynthDiffForkFaultFallback:
// no target change alone has been seen to break it.)
func TestSynthDiffForkMatchesScratch(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 2.0, 0.72)
	cfg.BackPinFraction = 0.5
	parent := completedFlow(t, cfg, "riscv")

	t.Run("degenerate_resize_free", func(t *testing.T) {
		// Tiny re-target: synthesis re-runs but picks identical drives.
		_, st := diffVsScratch(t, parent, func(c *FlowConfig) { c.TargetFreqGHz = 2.005 })
		if !st.DiffPath || st.Resized != 0 {
			t.Errorf("want resize-free diff path, got %+v", st)
		}
	})

	var chained *Flow
	t.Run("resized_neighbors", func(t *testing.T) {
		for _, tgt := range []float64{2.02, 2.06, 2.1} {
			child, st := diffVsScratch(t, parent, func(c *FlowConfig) { c.TargetFreqGHz = tgt })
			if !st.DiffPath {
				t.Errorf("tgt %v: expected diff path, fell back: %q", tgt, st.Fallback)
				continue
			}
			if st.Resized == 0 {
				t.Errorf("tgt %v: expected a resized diff: %+v", tgt, st)
			}
			chained = child
		}
	})

	t.Run("chained", func(t *testing.T) {
		// A completed diff child is itself a diffable checkpoint: chain a
		// second hop off it.
		if chained == nil {
			t.Skip("no diff child to chain from")
		}
		_, st := diffVsScratch(t, chained, func(c *FlowConfig) { c.TargetFreqGHz = 2.12 })
		if !st.DiffPath {
			t.Errorf("chained hop fell back: %q", st.Fallback)
		}
	})

	t.Run("fallback_far_target", func(t *testing.T) {
		// A coarse re-target grows the cell area enough to move the
		// floorplan: the fork must fall back and still match scratch.
		_, st := diffVsScratch(t, parent, func(c *FlowConfig) { c.TargetFreqGHz = 1.5 })
		if st.DiffPath {
			t.Errorf("far target should fall back, got %+v", st)
		}
	})

	t.Run("fallback_delta_beyond_synth", func(t *testing.T) {
		// A delta that also moves a later-stage knob (utilization) cannot
		// adopt the parent's floorplan-derived state.
		_, st := diffVsScratch(t, parent, func(c *FlowConfig) {
			c.TargetFreqGHz = 2.02
			c.Utilization = 0.68
		})
		if st.DiffPath {
			t.Errorf("cross-stage delta should fall back, got %+v", st)
		}
	})
}

// TestSynthDiffForkFaultFallback drives an injected fault into each diff
// gate and requires the run to degrade to the full pipeline with
// bit-identical artifacts.
func TestSynthDiffForkFaultFallback(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 2.0, 0.70)
	cfg.BackPinFraction = 0.5
	parent := completedFlow(t, cfg, "small")
	mutate := func(c *FlowConfig) { c.TargetFreqGHz = 2.001 }

	cases := []struct {
		site  string
		check func(t *testing.T, st *SynthDiffStats)
	}{
		{"core.forkdiff.diff", func(t *testing.T, st *SynthDiffStats) {
			if st.DiffPath || st.Fallback == "" {
				t.Errorf("diff-gate fault must force fallback: %+v", st)
			}
		}},
		{"core.forkdiff.place", func(t *testing.T, st *SynthDiffStats) {
			if st.DiffPath || st.Fallback == "" {
				t.Errorf("place-gate fault must force fallback: %+v", st)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			deactivate := faultinject.Activate(faultinject.New(1,
				faultinject.WithRate(1),
				faultinject.WithKinds(faultinject.Error),
				faultinject.WithSites(tc.site)))
			defer deactivate()
			_, st := diffVsScratch(t, parent, mutate)
			tc.check(t, st)
		})
	}
}

// TestSynthDiffForkConcurrent fans several diff forks off one completed
// parent concurrently (the daemon's warm-sweep shape) and checks each
// against a scratch fork. Run under -race in CI.
func TestSynthDiffForkConcurrent(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 2.0, 0.70)
	cfg.BackPinFraction = 0.5
	parent := completedFlow(t, cfg, "small")

	targets := []float64{2.0005, 2.001, 2.005, 2.01}
	children := make([]*Flow, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child, st, err := parent.ForkSynthDiff(func(c *FlowConfig) { c.TargetFreqGHz = tgt })
			if err != nil {
				errs[i] = err
				return
			}
			if !st.DiffPath {
				errs[i] = fmt.Errorf("tgt %v fell back: %q", tgt, st.Fallback)
				return
			}
			if _, err := child.Run(); err != nil {
				errs[i] = err
				return
			}
			children[i] = child
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tgt %v: %v", targets[i], err)
		}
	}
	for i, tgt := range targets {
		cfg := parent.Config()
		cfg.TargetFreqGHz = tgt
		scratch := scratchRun(t, parent.input, cfg)
		if sa := flowArtifact(t, scratch); sa != flowArtifact(t, children[i]) {
			t.Errorf("tgt %v: concurrent diff fork diverged from scratch", tgt)
		}
	}
}
