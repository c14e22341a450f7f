package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/cts"
	"repro/internal/extract"
	"repro/internal/faultinject"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/powerplan"
	"repro/internal/route"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/tech"
	"repro/internal/variation"
)

// Stage identifies one step of the physical implementation pipeline
// (Fig. 7), in execution order. Flow.RunTo executes up to and including a
// stage; Flow.Fork resumes a cloned session at the earliest stage a
// config change affects.
type Stage int

// Pipeline stages, in execution order.
const (
	StageSynth     Stage = iota // synthesis sizing + fanout buffering
	StageFloorplan              // core sizing + placement rows
	StagePowerplan              // BSPDN stripes + power tap cells
	StagePlace                  // global placement + IO port placement
	StageCTS                    // clock tree + legalization + refinement
	StagePartition              // Algorithm 1 pin redistribution + net split
	StageRoute                  // dual-sided global routing
	StageExtract                // dual-sided RC extraction
	StageSTA                    // static timing analysis
	StagePower                  // power analysis

	// NumStages is the pipeline length (StageTimes array size).
	NumStages = int(iota)
)

var stageNames = [NumStages]string{
	"synth", "floorplan", "powerplan", "place", "cts",
	"partition", "route", "extract", "sta", "power",
}

// stageSites are the fault-injection site names consulted at each stage
// entry, precomputed so the (normally disabled) hook costs no per-call
// string concatenation.
var stageSites = func() (sites [NumStages]string) {
	for i, name := range stageNames {
		sites[i] = "core.stage." + name
	}
	return
}()

// String returns the stage's short name.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// stageFns dispatches a stage to its method; the index is the Stage.
var stageFns = [NumStages]func(*Flow) error{
	(*Flow).stageSynth,
	(*Flow).stageFloorplan,
	(*Flow).stagePowerplan,
	(*Flow).stagePlace,
	(*Flow).stageCTS,
	(*Flow).stagePartition,
	(*Flow).stageRoute,
	(*Flow).stageExtract,
	(*Flow).stageSTA,
	(*Flow).stagePower,
}

// firstAffectedStage returns the earliest pipeline stage whose inputs
// differ between two configs (FlowConfig.Before), the stage a forked
// session must resume from; Stage(NumStages) when no stage reads a
// changed field (only the cosmetic Name differs).
func firstAffectedStage(old, new FlowConfig) Stage {
	s := StageSynth
	for int(s) < NumStages && old.Before(s+1) == new.Before(s+1) {
		s++
	}
	return s
}

// Flow is one checkpointable physical-implementation session: the
// pipeline of RunFlow split into explicit stages with inspectable
// intermediate state.
//
//	f, _ := core.NewFlow(nl, cfg)
//	f.RunTo(core.StageCTS)                     // shared prefix, once
//	g, _ := f.Fork(func(c *core.FlowConfig) {  // resumes at StagePartition
//	    c.BackPinFraction = 0.3
//	})
//	res, _ := g.Run()
//
// Fork clones the session at the deepest stage unaffected by the config
// delta, so a parameter sweep re-runs only the divergent suffix. Stage
// outputs are immutable once produced and shared between parent and
// children; the netlist — which placement and CTS mutate in place — is
// checkpointed at the two mutation boundaries (post-synth and
// post-global-placement) and forked children get their own Snapshot; a
// child resuming at StageCTS legalizes and refines its snapshot of the
// post-global-placement netlist exactly as a from-scratch run does.
// Forked runs are bit-identical to from-scratch runs of the same config.
//
// Independent forked sessions may run concurrently: from StagePartition
// on, every stage only reads the shared netlist. A single session is
// guarded against concurrent misuse rather than serialized: overlapping
// RunTo calls, or a Fork while the parent is mid-RunTo, fail fast with
// ErrForkRace instead of corrupting checkpoint state.
type Flow struct {
	cfg   FlowConfig
	input *netlist.Netlist
	lib   *cell.Library
	st    *tech.Stack
	// keepSnaps enables the stage-boundary netlist checkpoints Fork
	// needs. Off for one-shot RunFlow calls, which fork nothing.
	keepSnaps bool

	// mu guards the session bookkeeping below (next, halted, err,
	// running, epoch). The long stage bodies execute outside the lock
	// under the running flag's exclusive ownership; Fork copies
	// checkpoint state under the lock and fails fast when it cannot.
	mu sync.Mutex
	// running marks a RunToCtx in flight. A second RunTo, or a Fork,
	// arriving while it is set returns ErrForkRace.
	running bool
	// epoch counts observable state transitions (stage completions,
	// halts, hard errors). Fork records it before the expensive
	// netlist snapshot it takes outside the lock and fails with
	// ErrForkRace if the parent advanced mid-copy.
	epoch uint64
	// runCtx is the context of the RunToCtx in flight; stage bodies
	// thread it into the cancellable inner loops. Only touched by the
	// running goroutine.
	runCtx context.Context

	next        Stage // first stage not yet executed
	halted      bool  // an early stage declared the run invalid
	reasonStage Stage // stage that set res.Reason (meaningful when Reason != "")
	err         error // first hard error; the session is dead once set

	res *FlowResult

	// Intermediate state, each slot owned by exactly one stage and
	// immutable afterwards (the netlist is the exception; see the
	// checkpoints).
	work      *netlist.Netlist // the working netlist (synth output, mutated through CTS)
	synthSnap *netlist.Netlist // checkpoint: post-synth, before placement mutates positions
	placeSnap *netlist.Netlist // checkpoint: post-global-placement, before CTS mutates structure
	fp        *floorplan.Plan
	pp        *powerplan.Result
	ctsRes    *cts.Result
	pa        *PinAssignment
	sides     *SideNets
	frontRes  *route.Result
	backRes   *route.Result
	netRC     []*extract.NetRC
	// staEng is StageSTA's timing engine, holding the propagation state
	// of the analysis over netRC; VariationBasis hands it to Monte Carlo
	// studies, which fork it per worker.
	staEng *sta.Engine
}

// NewFlow opens a staged flow session over a technology-mapped netlist.
// The input netlist is never mutated (synthesis works on a copy). Errors
// indicate structurally impossible configs; per-stage failures surface
// from RunTo/Run.
func NewFlow(nl *netlist.Netlist, cfg FlowConfig) (*Flow, error) {
	return newFlow(nl, cfg, true)
}

func newFlow(nl *netlist.Netlist, cfg FlowConfig, keepSnaps bool) (*Flow, error) {
	lib := nl.Lib
	st := lib.Stack
	if err := validateFlowConfig(st, &cfg); err != nil {
		return nil, err
	}
	return &Flow{
		cfg:       cfg,
		input:     nl,
		lib:       lib,
		st:        st,
		keepSnaps: keepSnaps,
		res:       &FlowResult{Config: cfg, Arch: st.Arch},
	}, nil
}

// Config returns the session's (normalized) configuration.
func (f *Flow) Config() FlowConfig { return f.cfg }

// NextStage returns the first stage that has not yet executed;
// Stage(NumStages) once the pipeline is complete.
func (f *Flow) NextStage() Stage {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Done reports whether the stage has executed (or was skipped because an
// earlier stage halted the run as invalid).
func (f *Flow) Done(s Stage) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return s < f.next || f.halted
}

// Halted reports whether an early stage declared the run invalid
// (infeasible powerplan, placement violation); later stages are skipped.
func (f *Flow) Halted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.halted
}

// Err returns the hard error that killed the session, nil while it is
// healthy.
func (f *Flow) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Workspace exposes the working netlist after StageSynth (nil before):
// positions after StagePlace, clock buffers after StageCTS. Callers must
// not mutate it.
func (f *Flow) Workspace() *netlist.Netlist { return f.work }

// Floorplan exposes the plan after StageFloorplan (nil before).
func (f *Flow) Floorplan() *floorplan.Plan { return f.fp }

// Powerplan exposes the BSPDN plan after StagePowerplan (nil before).
func (f *Flow) Powerplan() *powerplan.Result { return f.pp }

// SideNets exposes the Algorithm 1 partition after StagePartition (nil
// before).
func (f *Flow) SideNets() *SideNets { return f.sides }

// RouteResult exposes one side's routing outcome after StageRoute (nil
// before, and nil for a side with no routing task).
func (f *Flow) RouteResult(side tech.Side) *route.Result {
	if side == tech.Back {
		return f.backRes
	}
	return f.frontRes
}

// VariationBasis exposes the StageSTA checkpoint as a Monte Carlo
// overlay-variation basis: the session's retained timing engine (the
// study forks it per worker — extraction is never re-run), the RC view
// its state was computed under, the analysis conditions, the target
// period, and the per-net per-side routed lengths that weight the two
// overlay axes. The session must have completed StageSTA on a valid run.
// The basis borrows session state that nothing mutates after StageSTA —
// a child forked after StageSTA shares the same engine — so samplers may
// be built from a session and its forks concurrently.
func (f *Flow) VariationBasis() (*variation.Basis, error) {
	if !f.Done(StageSTA) || f.Halted() {
		return nil, fmt.Errorf("core: variation basis needs a valid session past StageSTA")
	}
	if f.staEng == nil {
		return nil, fmt.Errorf("core: session has no retained timing basis")
	}
	fw := make([]int64, len(f.work.Nets))
	bw := make([]int64, len(f.work.Nets))
	for _, n := range f.work.Nets {
		if t := f.frontRes.Tree(n.Seq); t != nil {
			fw[n.Seq] = t.WirelenNm
		}
		if t := f.backRes.Tree(n.Seq); t != nil {
			bw[n.Seq] = t.WirelenNm
		}
	}
	return &variation.Basis{
		Engine:         f.staEng,
		NetRC:          f.netRC,
		ClockArrivalPs: f.ctsRes.ArrivalPs,
		STAOpt:         sta.DefaultOptions(),
		PeriodPs:       1000.0 / f.cfg.TargetFreqGHz,
		FrontWirelenNm: fw,
		BackWirelenNm:  bw,
	}, nil
}

// RunTo executes pipeline stages up to and including target (clamped to
// StagePower). Already-executed stages never re-run — calling RunTo
// twice with the same target is free, which makes a Flow a resumable
// checkpoint. If an earlier stage halted the run as invalid, RunTo is a
// no-op; inspect Result. A hard error kills the session; every
// subsequent call returns ErrSessionDead wrapping the original error.
func (f *Flow) RunTo(target Stage) error {
	return f.RunToCtx(context.Background(), target)
}

// stageEnterHook, when set (tests only), runs at every stage entry before
// the stage body — the deterministic way to hold a session mid-RunTo.
var stageEnterHook func(*Flow, Stage)

// RunToCtx is RunTo under a context: cancellation is observed at every
// stage boundary and inside the three long-running inner loops (route A*
// expansion, placement refinement passes, STA levelized propagation), so
// a cancel returns within one stage — classified as ErrCancelled — after
// a bounded number of inner iterations. A cancelled run is a hard error:
// a stage was interrupted mid-mutation, so the session is dead and retry
// means forking a healthy parent or opening a fresh session.
//
// A RunToCtx overlapping another RunToCtx on the same session fails fast
// with ErrForkRace without touching the pipeline.
func (f *Flow) RunToCtx(ctx context.Context, target Stage) error {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	if f.err != nil {
		defer f.mu.Unlock()
		return f.deadErrLocked()
	}
	if f.running {
		defer f.mu.Unlock()
		return &FlowError{Kind: ErrForkRace, Stage: f.next, Config: f.cfg.Name,
			Err: errors.New("RunTo while another RunTo is in flight")}
	}
	f.running = true
	f.runCtx = ctx
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.running = false
		f.runCtx = nil
		f.mu.Unlock()
	}()

	if target > StagePower {
		target = StagePower
	}
	done := ctx.Done()
	for !f.halted && f.next <= target {
		s := f.next
		if done != nil {
			select {
			case <-done:
				return f.kill(&FlowError{Kind: ErrCancelled, Stage: s,
					Config: f.cfg.Name, Err: ctx.Err()})
			default:
			}
		}
		if stageEnterHook != nil {
			stageEnterHook(f, s)
		}
		t0 := time.Now()
		if err := f.runStage(s); err != nil {
			return f.kill(classify(s, f.cfg.Name, err))
		}
		f.res.StageTimes[s] = time.Since(t0)
		f.mu.Lock()
		f.next = s + 1
		f.epoch++
		f.mu.Unlock()
	}
	return nil
}

// runStage executes one stage body with panic containment and the fault
// hook: a panicking stage surfaces as ErrStagePanic on this session only,
// never as a process crash.
func (f *Flow) runStage(s Stage) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(s, f.cfg.Name, r)
		}
	}()
	if err := faultinject.Fire(stageSites[s]); err != nil {
		return err
	}
	return stageFns[s](f)
}

// kill records the session's first hard error — the session is dead from
// here on — and returns it.
func (f *Flow) kill(err error) error {
	f.mu.Lock()
	f.err = err
	f.epoch++
	f.mu.Unlock()
	return err
}

// deadErrLocked wraps the error that killed the session as
// ErrSessionDead for calls arriving after the death; callers hold mu.
func (f *Flow) deadErrLocked() error {
	return &FlowError{Kind: ErrSessionDead, Stage: f.next, Config: f.cfg.Name, Err: f.err}
}

// Run executes the remaining stages and returns the assembled result.
func (f *Flow) Run() (*FlowResult, error) {
	return f.RunCtx(context.Background())
}

// RunCtx is Run under a context; see RunToCtx for cancellation and
// error-classification semantics.
func (f *Flow) RunCtx(ctx context.Context) (*FlowResult, error) {
	if err := f.RunToCtx(ctx, StagePower); err != nil {
		return nil, err
	}
	return f.Result(), nil
}

// Result assembles the FlowResult from the stages executed so far. A run
// is Valid only when the whole pipeline completed with no violation
// Reason; a halted or partial pipeline yields Valid=false with the
// metrics of the stages that did run.
func (f *Flow) Result() *FlowResult {
	f.mu.Lock()
	next := f.next
	f.mu.Unlock()
	f.res.Valid = int(next) == NumStages && f.res.Reason == ""
	return f.res
}

// halt marks the run invalid at the given stage: the reason is recorded
// and all later stages are skipped, matching the one-shot flow's early
// return. The session itself stays healthy (Fork can still branch off
// any stage before the halt).
func (f *Flow) halt(s Stage, reason string) {
	f.mu.Lock()
	f.res.Reason = reason
	f.reasonStage = s
	f.halted = true
	f.epoch++
	f.mu.Unlock()
}

// stageCtx returns the context of the RunToCtx in flight (Background for
// stage bodies invoked outside a run, which cannot happen today).
func (f *Flow) stageCtx() context.Context {
	if f.runCtx != nil {
		return f.runCtx
	}
	return context.Background()
}

// Fork clones the session under a mutated config, resuming at the
// deepest stage unaffected by the config delta: every stage before the
// resume point is inherited from the parent instead of re-running. The
// parent is left untouched and can keep running or fork again; the child
// is independent (mutable state is snapshotted, immutable stage outputs
// are shared). Fork(nil) clones at the parent's current stage.
//
// Forking never executes stages: if the parent has not yet reached the
// divergence stage, the child simply resumes wherever the parent
// stopped. Run the parent to the deepest shared stage first (e.g.
// RunTo(StageCTS) before a BackPinFraction sweep) to maximize reuse. No
// config delta first reaches StageCTS, StageExtract, StageSTA or
// StagePower, so a child resumes at one of them only when its parent
// stopped there; one resuming at StageCTS (a parent stopped after
// StagePlace) re-runs the clock tree, legalization and refinement in full
// on its own snapshot of the parent's global placement.
//
// Fork is safe under arbitrary concurrency: forking a parent that is
// mid-RunTo fails fast with ErrForkRace (no partial checkpoint is ever
// shared), as does a fork that observes the parent advancing while the
// child's netlist snapshot was being taken. Concurrent forks off a
// quiescent parent serialize on the session lock; the expensive deep
// snapshot happens outside it.
func (f *Flow) Fork(mutate func(*FlowConfig)) (*Flow, error) {
	f.mu.Lock()
	if f.err != nil {
		defer f.mu.Unlock()
		return nil, f.deadErrLocked()
	}
	if f.running {
		defer f.mu.Unlock()
		return nil, &FlowError{Kind: ErrForkRace, Stage: f.next, Config: f.cfg.Name,
			Err: errors.New("fork off a parent mid-RunTo")}
	}
	epoch := f.epoch
	cfg := f.cfg
	if mutate != nil {
		mutate(&cfg)
	}
	if err := validateFlowConfig(f.st, &cfg); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	resume := firstAffectedStage(f.cfg, cfg)
	if resume > f.next {
		resume = f.next
	}
	// Resuming between floorplan and CTS needs a checkpoint of the
	// netlist as it stood at that boundary; without one (one-shot
	// sessions don't keep them) fall back to a full re-run.
	if resume > StageSynth && resume <= StagePlace && f.synthSnap == nil {
		resume = StageSynth
	}
	if resume == StageCTS && f.placeSnap == nil {
		resume = StageSynth
	}

	child := &Flow{
		cfg:       cfg,
		input:     f.input,
		lib:       f.lib,
		st:        f.st,
		keepSnaps: f.keepSnaps,
		next:      resume,
		res:       &FlowResult{Config: cfg, Arch: f.st.Arch},
	}
	copyResultPrefix(child.res, f.res, resume)
	if f.res.Reason != "" && f.reasonStage < resume {
		// The invalidating stage is part of the inherited prefix; the
		// child is halted exactly like a from-scratch run would be.
		child.res.Reason = f.res.Reason
		child.reasonStage = f.reasonStage
		child.halted = f.halted
	}

	// Inherit stage outputs below the resume point. All are immutable
	// once produced except the netlist, which later stages mutate up
	// through StageCTS: a child that re-runs any mutating stage gets its
	// own Snapshot of the matching checkpoint; from StagePartition on,
	// the final netlist is shared read-only. A child that inherited a
	// halt will never execute a stage, so it skips the deep copies (the
	// checkpoint pointers still carry over for its own forks). The deep
	// Snapshot is deferred to after the session lock is released — the
	// checkpoints are immutable once recorded, so only the pointer reads
	// need the lock.
	var snapSrc *netlist.Netlist
	if resume > StageSynth {
		child.synthSnap = f.synthSnap
		switch {
		case resume <= StagePlace:
			if !child.halted {
				snapSrc = f.synthSnap
			}
		case resume == StageCTS:
			child.placeSnap = f.placeSnap
			if !child.halted {
				snapSrc = f.placeSnap
			}
		default:
			child.placeSnap = f.placeSnap
			child.work = f.work
		}
	}
	if resume > StageFloorplan {
		child.fp = f.fp
	}
	if resume > StagePowerplan {
		child.pp = f.pp
	}
	if resume > StageCTS {
		child.ctsRes = f.ctsRes
	}
	if resume > StagePartition {
		child.pa = f.pa
		child.sides = f.sides
	}
	if resume > StageRoute {
		child.frontRes = f.frontRes
		child.backRes = f.backRes
	}
	if resume > StageExtract {
		child.netRC = f.netRC
	}
	if resume > StageSTA {
		child.staEng = f.staEng
	}
	f.mu.Unlock()

	if snapSrc != nil {
		child.work = snapSrc.Snapshot()
	}

	// Epoch recheck: if the parent ran, halted, or died while the deep
	// snapshot was being taken, the prefix this child copied may mix two
	// generations of parent state — fail fast rather than hand it out.
	f.mu.Lock()
	raced := f.epoch != epoch
	f.mu.Unlock()
	if raced {
		return nil, &FlowError{Kind: ErrForkRace, Stage: resume, Config: cfg.Name,
			Err: errors.New("parent advanced while fork was copying checkpoint state")}
	}
	return child, nil
}

// copyResultPrefix copies into dst the FlowResult fields owned by stages
// strictly before upTo. Fields of later stages stay zero — the child
// either recomputes them or, for a halted run, legitimately never had
// them.
func copyResultPrefix(dst, src *FlowResult, upTo Stage) {
	if upTo > StageSynth {
		dst.SynthBuffers = src.SynthBuffers
	}
	if upTo > StageFloorplan {
		dst.CoreAreaUm2 = src.CoreAreaUm2
		dst.CoreW, dst.CoreH = src.CoreW, src.CoreH
		dst.CellAreaUm2 = src.CellAreaUm2
	}
	if upTo > StagePowerplan {
		dst.PowerStripes = src.PowerStripes
	}
	if upTo > StageCTS {
		dst.CTSBuffers = src.CTSBuffers
		dst.RealUtilization = src.RealUtilization
		dst.HPWLUm = src.HPWLUm
	}
	if upTo > StagePartition {
		dst.PinStats = src.PinStats
		dst.Rerouted = src.Rerouted
	}
	if upTo > StageRoute {
		dst.DRVsFront, dst.DRVsBack = src.DRVsFront, src.DRVsBack
		dst.WirelenFrontUm = src.WirelenFrontUm
		dst.WirelenBackUm = src.WirelenBackUm
		dst.Vias = src.Vias
	}
	if upTo > StageSTA {
		dst.STA = src.STA
		dst.MinPeriodPs = src.MinPeriodPs
		dst.AchievedFreqGHz = src.AchievedFreqGHz
	}
	if upTo > StagePower {
		dst.Power = src.Power
		dst.PowerUW = src.PowerUW
		dst.EffGHzPerW = src.EffGHzPerW
	}
	for s := StageSynth; s < upTo && int(s) < NumStages; s++ {
		dst.StageTimes[s] = src.StageTimes[s]
	}
}

// --- Stage bodies -----------------------------------------------------------
//
// The bodies below are RunFlow's original sections, unchanged in
// operation order so the staged pipeline is bit-identical to the
// monolithic flow it replaced (core.TestFlowGolden holds both to the
// same artifacts).

// stageSynth sizes and buffers a copy of the input netlist.
func (f *Flow) stageSynth() error {
	syn, err := synth.Run(f.input, synth.DefaultOptions(f.cfg.TargetFreqGHz))
	if err != nil {
		return err
	}
	f.work = syn.Netlist
	f.res.SynthBuffers = syn.BuffersAdded
	if f.keepSnaps {
		f.synthSnap = f.work.Snapshot()
	}
	return nil
}

// stageFloorplan sizes the core and generates placement rows.
func (f *Flow) stageFloorplan() error {
	// Reserve ~2.5% headroom for clock tree buffers inserted after the
	// floorplan is frozen, so the requested utilization refers to the
	// post-CTS cell area (as the paper reports it).
	fpArea := int64(float64(f.work.CellAreaNm2()) * 1.025)
	fp, err := floorplan.New(f.st, fpArea, f.cfg.Utilization, f.cfg.AspectRatio)
	if err != nil {
		return err
	}
	f.fp = fp
	f.res.CoreAreaUm2 = fp.CoreAreaUm2()
	f.res.CoreW, f.res.CoreH = fp.Core.W(), fp.Core.H()
	f.res.CellAreaUm2 = f.work.CellAreaUm2()
	return nil
}

// stagePowerplan plans the BSPDN stripes and power tap cells; an
// infeasible plan halts the run as invalid.
func (f *Flow) stagePowerplan() error {
	pp, err := powerplan.Plan(f.fp, f.cfg.Pattern)
	if err != nil {
		return err
	}
	f.pp = pp
	f.res.PowerStripes = len(pp.Stripes)
	if !pp.Feasible {
		f.halt(StagePowerplan, pp.Reason)
	}
	return nil
}

// stagePlace runs global placement (and IO port placement).
func (f *Flow) stagePlace() error {
	popt := place.DefaultOptions()
	popt.Seed = f.cfg.Seed
	if err := place.GlobalCtx(f.stageCtx(), f.work, f.fp, popt); err != nil {
		return err
	}
	if f.keepSnaps {
		f.placeSnap = f.work.Snapshot()
	}
	return nil
}

// stageCTS builds the clock tree, then legalizes and refines the full
// placement (CTS buffers included); a legalization failure halts the run
// as invalid.
func (f *Flow) stageCTS() error {
	ctsRes, err := cts.Run(f.work, f.fp, cts.DefaultOptions())
	if err != nil {
		return err
	}
	f.ctsRes = ctsRes
	f.res.CTSBuffers = ctsRes.Buffers
	f.res.RealUtilization = float64(f.work.CellAreaNm2()) / float64(f.fp.Core.Area())
	if err := place.Legalize(f.work, f.fp, f.pp.Blockages); err != nil {
		// A legalization failure is a property of the config (run invalid,
		// session healthy), not a session fault.
		f.halt(StageCTS, fmt.Sprintf("placement violation: %v", err))
		return nil
	}
	if err := place.RefineCtx(f.stageCtx(), f.work, f.fp, f.pp.Blockages, 3); err != nil {
		return err
	}
	f.res.HPWLUm = float64(place.HPWL(f.work, f.fp)) / 1000
	return nil
}

// stagePartition redistributes input pins and splits every net into
// per-side routing tasks (Algorithm 1). From here on no stage mutates
// the netlist, so forked sessions share it read-only.
func (f *Flow) stagePartition() error {
	pa, err := AssignPins(f.lib, f.cfg.BackPinFraction, f.cfg.Seed, f.work)
	if err != nil {
		return err
	}
	f.pa = pa
	pinAt := func(ref netlist.PinRef) geom.Point { return pinLocation(ref, f.fp) }
	sides, err := Partition(f.work, pa, f.cfg.Pattern, pinAt)
	if err != nil {
		return err
	}
	f.sides = sides
	f.res.PinStats = sides.Stats()
	f.res.Rerouted = sides.Rerouted
	return nil
}

// stageRoute routes both sides concurrently; crossing the MaxDRVs budget
// records the violation Reason but analysis continues (the paper reports
// only valid points; callers filter on Valid).
func (f *Flow) stageRoute() error {
	ropt := f.cfg.Route
	if f.st.Arch == tech.CFET && ropt.PinAccessFactor <= 1 {
		// Every CFET pin is reached from the single frontside through a
		// 4T-tall cell whose drain supervias block access tracks; the
		// FFET's symmetric structure removes these (Section II.B).
		ropt.PinAccessFactor = 1.5
	}
	// The two sides route concurrently: Algorithm 1 already split the
	// nets into disjoint per-side tasks over independent grids ("the
	// global & detailed routing are performed independently on both
	// sides"), so dual-sided routing is embarrassingly parallel and the
	// results are identical to routing the sides back to back.
	var (
		frontRes, backRes *route.Result
		frontErr, backErr error
		wg                sync.WaitGroup
	)
	ctx := f.stageCtx()
	runSide := func(side tech.Side, nets []*route.Net, out **route.Result, errOut *error) {
		defer wg.Done()
		layers := f.st.SideRoutingLayers(f.cfg.Pattern, side)
		r, err := route.NewRouter(f.fp.Core, side, layers, ropt)
		if err != nil {
			*errOut = err
			return
		}
		*out, *errOut = r.RunCtx(ctx, nets)
	}
	if len(f.sides.Front) > 0 {
		wg.Add(1)
		go runSide(tech.Front, f.sides.Front, &frontRes, &frontErr)
	}
	if len(f.sides.Back) > 0 {
		wg.Add(1)
		go runSide(tech.Back, f.sides.Back, &backRes, &backErr)
	}
	wg.Wait()
	if frontErr != nil {
		return frontErr
	}
	if backErr != nil {
		return backErr
	}
	f.frontRes, f.backRes = frontRes, backRes
	res := f.res
	if frontRes != nil {
		res.DRVsFront = frontRes.DRVs
		res.WirelenFrontUm = float64(frontRes.WirelenNm) / 1000
		res.Vias += frontRes.ViaCount
	}
	if backRes != nil {
		res.DRVsBack = backRes.DRVs
		res.WirelenBackUm = float64(backRes.WirelenNm) / 1000
		res.Vias += backRes.ViaCount
	}
	if res.DRVs() >= f.cfg.MaxDRVs {
		res.Reason = fmt.Sprintf("routing violations: %d DRVs (front %d, back %d) >= %d",
			res.DRVs(), res.DRVsFront, res.DRVsBack, f.cfg.MaxDRVs)
		f.reasonStage = StageRoute
	}
	return nil
}

// stageExtract runs dual-sided RC extraction into the dense Seq-indexed
// database.
func (f *Flow) stageExtract() error {
	// The extraction database is dense: one NetRC per net, indexed by the
	// net's Seq, backed by a single contiguous store. STA and power read
	// it by Seq — no name-keyed maps anywhere on the analysis tail.
	work, sides := f.work, f.sides
	eopt := extract.DefaultOptions()
	rcStore := make([]extract.NetRC, len(work.Nets))
	netRC := make([]*extract.NetRC, len(work.Nets))
	// Pre-carve every net's Elmore storage from one flat arena; ExtractInto
	// reuses storage of sufficient capacity, so the whole extraction makes
	// three allocations total.
	totalSinks := 0
	for _, n := range work.Nets {
		totalSinks += len(n.Sinks)
	}
	elArena := make([]float64, totalSinks)
	carved := 0
	for _, n := range work.Nets {
		rcStore[n.Seq].ElmorePs = elArena[carved : carved+len(n.Sinks) : carved+len(n.Sinks)]
		carved += len(n.Sinks)
	}
	ex := extract.NewExtractor()
	for _, n := range work.Nets {
		ex.ExtractInto(&rcStore[n.Seq], f.st, extract.NetInput{
			Name:      n.Name,
			Front:     f.frontRes.Tree(n.Seq),
			Back:      f.backRes.Tree(n.Seq),
			SinkPos:   sides.SinkPos[n.Seq],
			SinkCapFF: sides.SinkCapFF[n.Seq],
		}, eopt)
		netRC[n.Seq] = &rcStore[n.Seq]
	}
	f.netRC = netRC
	return nil
}

// stageSTA analyzes timing over the extracted RC database.
func (f *Flow) stageSTA() error {
	eng, err := sta.NewEngine(f.work)
	if err != nil {
		return err
	}
	// Analyze directly into a detached Result: FlowResults are memoized
	// by exp.Suite, so the stored Result must not alias the Engine's
	// reusable storage.
	staRes := &sta.Result{}
	in := sta.Input{NetRC: f.netRC, ClockArrivalPs: f.ctsRes.ArrivalPs}
	if err := eng.AnalyzeIntoCtx(f.stageCtx(), staRes, in, sta.DefaultOptions()); err != nil {
		return err
	}
	f.staEng = eng
	f.res.STA = staRes
	f.res.MinPeriodPs = staRes.MinPeriodPs
	f.res.AchievedFreqGHz = staRes.AchievedFreqGHz
	return nil
}

// stagePower runs power analysis at the achieved frequency.
func (f *Flow) stagePower() error {
	pw := power.Analyze(f.work, f.st, f.netRC, f.res.AchievedFreqGHz, power.DefaultOptions())
	f.res.Power = pw
	f.res.PowerUW = pw.TotalUW
	f.res.EffGHzPerW = pw.EfficiencyGHzPerW()
	return nil
}
