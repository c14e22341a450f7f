// Synth-diff forking: frequency-axis incremental sweeps.
//
// Synthesis runs at fixed options, so two targets synthesize netlists
// that differ only by drive resizing: the generator and the buffering
// passes are target-independent. Global placement models every cell at
// its base-drive footprint (see place.Global), so over such a pair it is
// a pure function of inputs both runs share. ForkSynthDiff runs the
// child's own synthesis, checks the resize-only correspondence with
// netlist.Diff (a guard: a target change alone has not been seen to
// break it) and, when the floorplans coincide, re-stamps the parent's
// global placement instead of re-placing; the child then runs CTS onward
// in full. A hop therefore falls back in practice only when the cell
// area moved the floorplan. Every gate failure falls back to the normal
// stage bodies, so a diff fork is bit-identical to a from-scratch fork
// by construction — core.TestSynthDiffForkMatchesScratch holds both
// paths to the same artifacts byte for byte.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/faultinject"
	"repro/internal/floorplan"
	"repro/internal/netlist"
)

// SynthDiffStats reports which path one synth-diff fork took.
type SynthDiffStats struct {
	// DiffPath is set when the fork re-stamped the parent's global
	// placement; Fallback then stays empty. When a gate failed, DiffPath
	// is false and Fallback says why — the returned child is still a
	// healthy session that simply runs the full pipeline.
	DiffPath bool
	Fallback string

	Resized int // resized instances between the two synth netlists
}

// ForkSynthDiff forks a completed parent toward a neighboring synthesis
// target through the netlist-diff path; see ForkSynthDiffCtx.
func (f *Flow) ForkSynthDiff(mutate func(*FlowConfig)) (*Flow, *SynthDiffStats, error) {
	return f.ForkSynthDiffCtx(context.Background(), mutate)
}

// ForkSynthDiffCtx forks the session under a mutated config whose delta
// re-runs synthesis (a frequency re-target), runs the child's synthesis,
// floorplan and powerplan, and — when the child's netlist is a pure
// resize of the parent's and the floorplans coincide — re-stamps the
// parent's global placement instead of re-placing, leaving the child
// positioned at StageCTS. Callers then Run the child normally.
//
// The returned stats say which path was taken. On any gate failure the
// child is still returned, healthy, and simply continues as a full
// from-scratch fork (its synthesis — the unavoidable cost — has already
// run); the error return is reserved for hard failures. Results are
// bit-identical between the two paths.
//
// The parent must be quiescent: a completed, valid, checkpointed session
// (the exp sweep and serve daemon chains satisfy this by construction).
func (f *Flow) ForkSynthDiffCtx(ctx context.Context, mutate func(*FlowConfig)) (*Flow, *SynthDiffStats, error) {
	st := &SynthDiffStats{}
	child, err := f.Fork(mutate)
	if err != nil {
		return nil, st, err
	}
	fallback := func(why string) (*Flow, *SynthDiffStats, error) {
		st.Fallback = why
		return child, st, nil
	}

	f.mu.Lock()
	ready := f.err == nil && !f.running && !f.halted && f.res.Reason == "" &&
		int(f.next) == NumStages && f.synthSnap != nil && f.placeSnap != nil
	f.mu.Unlock()
	if !ready {
		return fallback("parent is not a completed valid checkpoint")
	}
	if child.NextStage() != StageSynth {
		return fallback("config delta does not re-run synthesis")
	}
	if diffDeltaBeyondSynth(f.cfg, child.cfg) {
		return fallback("config delta reaches past the synthesis stage")
	}

	// The unavoidable work: the child's own synthesis (plus the cheap
	// floorplan/powerplan), through the normal stage bodies.
	if err := child.RunToCtx(ctx, StagePowerplan); err != nil {
		return nil, st, err
	}
	if child.Halted() {
		return fallback("child halted before placement")
	}
	if err := faultinject.Fire("core.forkdiff.diff"); err != nil {
		return fallback(fmt.Sprintf("fault injected: %v", err))
	}

	d := netlist.Diff(f.synthSnap, child.synthSnap)
	st.Resized = len(d.Resized)
	if !d.SeqStable {
		return fallback("synth netlists diverge structurally")
	}
	if !samePlan(f.fp, child.fp) {
		return fallback("floorplans differ between the targets")
	}
	if err := faultinject.Fire("core.forkdiff.place"); err != nil {
		return fallback(fmt.Sprintf("fault injected: %v", err))
	}

	// Re-stamp the parent's global placement: over a resize-only
	// correspondence and an identical floorplan, the child's own
	// StagePlace would reproduce these exact positions.
	t0 := time.Now()
	for i, inst := range f.placeSnap.Instances {
		child.work.Instances[i].Pos = inst.Pos
	}
	for i, p := range f.placeSnap.Ports {
		child.work.Ports[i].Pos = p.Pos
	}
	child.placeSnap = child.work.Snapshot()
	child.res.StageTimes[StagePlace] = time.Since(t0)

	child.mu.Lock()
	child.next = StageCTS
	child.epoch++
	child.mu.Unlock()
	st.DiffPath = true
	return child, st, nil
}

// diffDeltaBeyondSynth reports whether b differs from a in anything but
// the synthesis target: with the target put back, a fork of a under b
// would still re-run some stage. Any such delta would invalidate
// re-stamping the parent's global placement.
func diffDeltaBeyondSynth(a, b FlowConfig) bool {
	b.TargetFreqGHz = a.TargetFreqGHz
	return firstAffectedStage(a, b) != Stage(NumStages)
}

// samePlan reports structural floorplan equality: same core rectangle and
// row geometry (the fields every later stage reads).
func samePlan(a, b *floorplan.Plan) bool {
	return a != nil && b != nil && a.Core == b.Core && slices.Equal(a.Rows, b.Rows)
}
