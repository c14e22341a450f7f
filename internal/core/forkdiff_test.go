package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/riscv"
	"repro/internal/synth"
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

// diffVsScratch forks parent both ways under the same mutation, runs both
// children to completion and requires byte-identical artifacts (every
// FlowResult metric at full precision plus the DEF SHA-256s).
func diffVsScratch(t *testing.T, parent *Flow, mutate func(*FlowConfig)) (*Flow, *SynthDiffStats) {
	t.Helper()
	diffChild, st, err := parent.ForkSynthDiff(mutate)
	if err != nil {
		t.Fatalf("ForkSynthDiff: %v", err)
	}
	scratch, err := parent.Fork(mutate)
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	// The scratch arm re-runs the full pipeline from StageSynth with no
	// inherited placement/partition/route/STA state.
	scratch.SetIncrementalPlacement(false)
	if _, err := diffChild.Run(); err != nil {
		t.Fatalf("diff child run: %v", err)
	}
	if _, err := scratch.Run(); err != nil {
		t.Fatalf("scratch child run: %v", err)
	}
	da, sa := flowArtifact(t, diffChild), flowArtifact(t, scratch)
	if da != sa {
		t.Errorf("diff fork diverged from scratch fork (stats %+v)\n--- diff\n%s--- scratch\n%s", st, da, sa)
	}
	return diffChild, st
}

// TestSynthDiffForkMatchesScratch is the tentpole property test: across
// neighboring-target pairs — resize-free, genuinely resized, chained,
// fallback-distance and topology-changed — the synth-diff fork's complete
// artifact set is byte-identical to a from-scratch fork's.
func TestSynthDiffForkMatchesScratch(t *testing.T) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 2.0, 0.72)
	cfg.BackPinFraction = 0.5
	parent := completedFlow(t, cfg, "riscv")

	t.Run("degenerate_resize_free", func(t *testing.T) {
		// Tiny re-target: synthesis re-runs but picks identical drives;
		// the whole back end is adopted.
		_, st := diffVsScratch(t, parent, func(c *FlowConfig) { c.TargetFreqGHz = 2.005 })
		if !st.DiffPath || st.Resized != 0 {
			t.Errorf("want resize-free diff path, got %+v", st)
		}
		if !st.PartitionPatched || !st.RouteAdoptedFront || !st.RouteAdoptedBack || !st.STARestamped {
			t.Errorf("resize-free diff should adopt everything: %+v", st)
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
			if st.Resized == 0 || !st.PartitionPatched || !st.STARestamped {
				t.Errorf("tgt %v: expected resized diff with patched partition + restamped STA: %+v", tgt, st)
			}
			chained = child
		}
	})

	t.Run("chained", func(t *testing.T) {
		// A completed diff child is itself a diffable checkpoint: chain a
		// second hop off it (its legalization basis still carries the
		// grandparent's widths — DivergedWidthSeqs covers the superset).
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

	t.Run("fallback_topology_change", func(t *testing.T) {
		// A synthesis-option change rebuilds different buffer trees: the
		// netlists diverge structurally and the diff gate must refuse.
		_, st := diffVsScratch(t, parent, func(c *FlowConfig) {
			c.Synth = defaultSynthWith(c.TargetFreqGHz, 4)
		})
		if st.DiffPath {
			t.Errorf("topology change should fall back, got %+v", st)
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

func defaultSynthWith(tgt float64, maxFanout int) synth.Options {
	o := synth.DefaultOptions(tgt)
	o.MaxFanout = maxFanout
	return o
}

// TestSynthDiffForkFaultFallback drives an injected fault into each
// diff/patch boundary and requires the run to degrade to the equivalent
// full computation with bit-identical artifacts.
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
		{"core.partition.patch", func(t *testing.T, st *SynthDiffStats) {
			if !st.DiffPath || st.PartitionPatched {
				t.Errorf("partition fault must run the full partition on the diff path: %+v", st)
			}
		}},
		{"core.route.adopt", func(t *testing.T, st *SynthDiffStats) {
			if !st.DiffPath || st.RouteAdoptedFront || st.RouteAdoptedBack {
				t.Errorf("route fault must re-route both sides: %+v", st)
			}
		}},
		{"core.sta.restamp", func(t *testing.T, st *SynthDiffStats) {
			if !st.DiffPath || st.STARestamped {
				t.Errorf("restamp fault must rebuild the engine: %+v", st)
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
		scratch, err := parent.Fork(func(c *FlowConfig) { c.TargetFreqGHz = tgt })
		if err != nil {
			t.Fatal(err)
		}
		scratch.SetIncrementalPlacement(false)
		if _, err := scratch.Run(); err != nil {
			t.Fatal(err)
		}
		if sa := flowArtifact(t, scratch); sa != flowArtifact(t, children[i]) {
			t.Errorf("tgt %v: concurrent diff fork diverged from scratch", tgt)
		}
	}
}
