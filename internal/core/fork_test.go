package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
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

// TestForkCopiesNoNetlist: Fork only copies pointers, whatever stage the
// child resumes at. A fork resuming at StageFloorplan (a synthesis root
// forked to a prefix config), at StagePlace (a seed delta) or at
// StageCTS (a parent stopped after StagePlace) must allocate no more
// than one resuming at StagePartition, which shares the parent's final
// netlist: the child copies the synthesis netlist only when placement or
// CTS first runs.
func TestForkCopiesNoNetlist(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := robustCfg()
	run := func(c FlowConfig, to Stage) *Flow {
		f, err := NewFlow(nl, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RunTo(to); err != nil {
			t.Fatal(err)
		}
		return f
	}
	root := run(cfg.Before(StageFloorplan), StageSynth)
	placed := run(cfg, StagePlace)
	done := run(cfg, StagePower)
	forks := []struct {
		name   string
		parent *Flow
		mutate func(*FlowConfig)
		resume Stage
	}{
		{"partition", done, func(c *FlowConfig) { c.BackPinFraction = 0.16 }, StagePartition},
		{"floorplan", root, func(c *FlowConfig) { *c = cfg }, StageFloorplan},
		{"place", done, func(c *FlowConfig) { c.Seed = 7 }, StagePlace},
		{"cts", placed, rename, StageCTS},
	}
	allocs := make([]float64, len(forks))
	for i, fc := range forks {
		child, err := fc.parent.Fork(fc.mutate)
		if err != nil {
			t.Fatal(err)
		}
		if child.NextStage() != fc.resume {
			t.Fatalf("%s fork resumes at %v, want %v", fc.name, child.NextStage(), fc.resume)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, err := fc.parent.Fork(fc.mutate); err != nil {
				panic(err)
			}
		})
	}
	for i, fc := range forks[1:] {
		if allocs[i+1] > allocs[0] {
			t.Errorf("a fork resuming at %v allocates %v times, more than the %v of one resuming at %v",
				fc.resume, allocs[i+1], allocs[0], forks[0].resume)
		}
	}
}

// TestCheckpointFootprint: a synthesis root holds one netlist, and a
// placed prefix holds its own working netlist and the shared synthesis
// checkpoint, but no second placed netlist. FootprintBytes charges only
// that: whatever it charges besides the netlists is far below one
// netlist.
func TestCheckpointFootprint(t *testing.T) {
	cfg := robustCfg()
	root, err := NewFlow(smallCore(t, ffetLib), cfg.Before(StageFloorplan))
	if err != nil {
		t.Fatal(err)
	}
	if err := root.RunTo(StageSynth); err != nil {
		t.Fatal(err)
	}
	one := root.synthSnap.FootprintBytes()
	if got := root.FootprintBytes(); got-one > one/4 {
		t.Errorf("root charges %d B, more than its one %d B netlist allows", got, one)
	}
	prefix, err := root.Fork(func(c *FlowConfig) { *c = cfg })
	if err != nil {
		t.Fatal(err)
	}
	if err := prefix.RunTo(StageCTS); err != nil {
		t.Fatal(err)
	}
	if prefix.work == root.synthSnap || prefix.synthSnap != root.synthSnap {
		t.Fatal("prefix must work on its own copy and keep the root's synthesis checkpoint")
	}
	nets := prefix.work.FootprintBytes() + one
	if got := prefix.FootprintBytes(); got-nets > one/4 {
		t.Errorf("prefix charges %d B, %d B beyond its working and synthesis netlists", got, got-nets)
	}
}

// TestSharedSynthCheckpointNeverWritten runs every kind of session that
// starts from one shared synthesis netlist concurrently: three prefixes
// forked off one root (two utilizations and a seed), a StageCTS resume
// off a parent stopped after StagePlace, and a synth-diff hop off a
// completed fork of the root. None may write the root's netlist — every
// instance and port keeps its position, cell and Fixed flag — and each
// result must match a scratch run. Not skipped under -short, so the race
// job runs it.
func TestSharedSynthCheckpointNeverWritten(t *testing.T) {
	nl := smallCore(t, ffetLib)
	cfg := robustCfg()
	root, err := NewFlow(nl, cfg.Before(StageFloorplan))
	if err != nil {
		t.Fatal(err)
	}
	if err := root.RunTo(StageSynth); err != nil {
		t.Fatal(err)
	}
	syn := root.synthSnap
	type instState struct {
		pos   geom.Point
		cell  *cell.Cell
		fixed bool
	}
	insts := make([]instState, len(syn.Instances))
	for i, inst := range syn.Instances {
		insts[i] = instState{inst.Pos, inst.Cell, inst.Fixed}
	}
	ports := make([]geom.Point, len(syn.Ports))
	for i, p := range syn.Ports {
		ports[i] = p.Pos
	}

	fork := func(parent *Flow, mutate func(*FlowConfig)) *Flow {
		child, err := parent.Fork(mutate)
		if err != nil {
			t.Fatal(err)
		}
		return child
	}
	placed := fork(root, func(c *FlowConfig) { *c = cfg })
	if err := placed.RunTo(StagePlace); err != nil {
		t.Fatal(err)
	}
	done := fork(root, func(c *FlowConfig) { *c = cfg })
	if _, err := done.Run(); err != nil {
		t.Fatal(err)
	}

	sessions := []*Flow{
		fork(root, func(c *FlowConfig) { *c = cfg; c.Utilization = 0.68 }),
		fork(root, func(c *FlowConfig) { *c = cfg; c.Utilization = 0.72 }),
		fork(root, func(c *FlowConfig) { *c = cfg; c.Seed = 7 }),
		fork(placed, rename),
		nil, // the diff hop, forked off done concurrently below
	}
	if got := sessions[3].NextStage(); got != StageCTS {
		t.Fatalf("fork of a placed parent resumes at %v, want %v", got, StageCTS)
	}
	hop := len(sessions) - 1
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions[:hop] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.Run()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		child, st, err := done.ForkSynthDiff(func(c *FlowConfig) { c.TargetFreqGHz = 1.501 })
		if err == nil && !st.DiffPath {
			err = fmt.Errorf("diff hop fell back: %s", st.Fallback)
		}
		if err == nil {
			_, err = child.Run()
		}
		sessions[hop], errs[hop] = child, err
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	for i, inst := range syn.Instances {
		if got := (instState{inst.Pos, inst.Cell, inst.Fixed}); got != insts[i] {
			t.Fatalf("instance %s of the synthesis checkpoint changed: %+v, was %+v", inst.Name, got, insts[i])
		}
	}
	for i, p := range syn.Ports {
		if p.Pos != ports[i] {
			t.Fatalf("port %s of the synthesis checkpoint moved to %v from %v", p.Name, p.Pos, ports[i])
		}
	}
	for i, s := range sessions {
		want := scratchRun(t, smallCore(t, ffetLib), s.Config())
		if ga, wa := flowArtifact(t, s), flowArtifact(t, want); ga != wa {
			t.Errorf("session %d differs from scratch:\n--- scratch\n%s--- forked\n%s", i, wa, ga)
		}
	}
}
