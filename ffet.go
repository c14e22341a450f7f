// Package ffet is the public API of the FFET dual-sided physical
// implementation and block-level PPA evaluation framework — a from-scratch
// Go reproduction of "A Tale of Two Sides of Wafer: Physical Implementation
// and Block-Level PPA on Flip FET with Dual-Sided Signals" (DATE 2025).
//
// The facade re-exports the pieces a downstream user needs:
//
//   - technology stacks (Table II) and characterized cell libraries
//     (Fig. 4 / Table I) for the 3.5T FFET and 4T CFET;
//   - the gate-level RV32I benchmark core generator with ISS co-simulation;
//   - the full physical flow (Fig. 7): synthesis sizing, floorplan, BSPDN
//     power planning with Power Tap Cells, placement, CTS, the Algorithm 1
//     dual-sided netlist partition and per-side routing, dual-sided RC
//     extraction, STA and power analysis — as a one-shot RunFlow or as a
//     checkpointable staged Flow session, whose DEF method renders the
//     per-side and merged DEF views of a routed layout on demand;
//   - the experiment suite reproducing every table and figure of the
//     paper's evaluation, with sweep points forked off shared flow
//     prefixes.
//
// Quick start:
//
//	lib := ffet.NewFFETLibrary()
//	nl, _, _ := ffet.GenerateRV32(lib, ffet.RV32Config{Registers: 32})
//	cfg := ffet.NewFlowConfig(ffet.Pattern{Front: 6, Back: 6}, 1.5, 0.76)
//	cfg.BackPinFraction = 0.5
//	res, _ := ffet.RunFlow(nl, cfg)
//	fmt.Println(res.AchievedFreqGHz, res.PowerUW)
//
// Staged sessions share a sweep's common work: run the shared prefix
// once, then fork each point off it. A fork inherits the finished stages
// its config delta leaves intact and re-runs the rest:
//
//	f, _ := ffet.NewFlow(nl, cfg)
//	f.RunTo(ffet.StageCTS) // synth + floorplan + powerplan + place + CTS
//	for _, bp := range []float64{0.5, 0.3, 0.16} {
//	    g, _ := f.Fork(func(c *ffet.FlowConfig) { c.BackPinFraction = bp })
//	    res, _ := g.Run() // resumes at StagePartition; bit-identical to scratch
//	    fmt.Println(bp, res.AchievedFreqGHz)
//	}
package ffet

import (
	"context"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/tech"
)

// Re-exported technology types.
type (
	// Stack is a metal stack + cell grid for one architecture.
	Stack = tech.Stack
	// Pattern selects routing layer counts per side (e.g. FM6BM6).
	Pattern = tech.Pattern
	// Library is a characterized standard-cell library.
	Library = cell.Library
	// Netlist is a gate-level design.
	Netlist = netlist.Netlist
	// FlowConfig parameterizes a physical implementation run.
	FlowConfig = core.FlowConfig
	// FlowResult is the complete P&R + PPA outcome.
	FlowResult = core.FlowResult
	// Flow is a checkpointable staged flow session (RunTo / Fork / Run).
	Flow = core.Flow
	// Stage identifies one step of the staged pipeline.
	Stage = core.Stage
	// RV32Config sizes the generated benchmark core.
	RV32Config = riscv.Config
	// CoreInfo records generated core structure for co-simulation.
	CoreInfo = riscv.CoreInfo
	// Suite runs the paper's experiments.
	Suite = exp.Suite
	// Table is a printable experiment result.
	Table = exp.Table
	// FlowError is the classified error every failed flow run returns:
	// errors.Is-matchable against the Err* sentinels below, carrying the
	// failing stage and config name.
	FlowError = core.FlowError
)

// Error taxonomy: every error a flow session returns wraps exactly one of
// these sentinels (match with errors.Is).
var (
	// ErrInvalidConfig rejects a structurally impossible or out-of-range
	// FlowConfig.
	ErrInvalidConfig = core.ErrInvalidConfig
	// ErrCancelled reports a run stopped by its context.
	ErrCancelled = core.ErrCancelled
	// ErrStagePanic reports a panic contained at a stage boundary.
	ErrStagePanic = core.ErrStagePanic
	// ErrStageFailed reports a stage's own hard error.
	ErrStageFailed = core.ErrStageFailed
	// ErrSessionDead rejects use of a session after a hard error.
	ErrSessionDead = core.ErrSessionDead
	// ErrForkRace rejects a Fork or RunTo that overlapped a RunTo.
	ErrForkRace = core.ErrForkRace
)

// Architecture constants.
const (
	FFET = tech.FFET
	CFET = tech.CFET
)

// Experiment scales.
const (
	Quick = exp.Quick
	Full  = exp.Full
)

// Pipeline stages, in execution order.
const (
	StageSynth     = core.StageSynth
	StageFloorplan = core.StageFloorplan
	StagePowerplan = core.StagePowerplan
	StagePlace     = core.StagePlace
	StageCTS       = core.StageCTS
	StagePartition = core.StagePartition
	StageRoute     = core.StageRoute
	StageExtract   = core.StageExtract
	StageSTA       = core.StageSTA
	StagePower     = core.StagePower
	// NumStages is the pipeline length (FlowResult.StageTimes size).
	NumStages = core.NumStages
)

// NewFFETStack returns the 3.5T FFET stack of the paper's Table II.
func NewFFETStack() *Stack { return tech.NewFFET() }

// NewCFETStack returns the 4T CFET stack of the paper's Table II.
func NewCFETStack() *Stack { return tech.NewCFET() }

// NewFFETLibrary generates and characterizes the 28-cell FFET library.
func NewFFETLibrary() *Library { return cell.NewLibrary(tech.NewFFET()) }

// NewCFETLibrary generates and characterizes the 28-cell CFET library.
func NewCFETLibrary() *Library { return cell.NewLibrary(tech.NewCFET()) }

// GenerateRV32 builds the gate-level RISC-V benchmark core over a
// library. Registers must be 8, 16 or 32; any other count is an error.
func GenerateRV32(lib *Library, cfg RV32Config) (*Netlist, *CoreInfo, error) {
	return riscv.Generate(lib, cfg)
}

// NewFlowConfig returns evaluation defaults for a pattern, synthesis
// target (GHz) and placement utilization.
func NewFlowConfig(p Pattern, targetGHz, util float64) FlowConfig {
	return core.DefaultFlowConfig(p, targetGHz, util)
}

// RunFlow executes the full physical implementation + PPA flow. It
// renders no DEF; open a Flow and call its DEF method for the layout.
func RunFlow(nl *Netlist, cfg FlowConfig) (*FlowResult, error) {
	return core.RunFlow(nl, cfg)
}

// RunFlowCtx is RunFlow under a context: cancellation stops the pipeline
// within one stage boundary (or inside the long route/place/STA loops)
// and returns an ErrCancelled-classified FlowError.
func RunFlowCtx(ctx context.Context, nl *Netlist, cfg FlowConfig) (*FlowResult, error) {
	return core.RunFlowCtx(ctx, nl, cfg)
}

// NewFlow opens a checkpointable staged flow session: RunTo executes to
// a stage boundary, Fork clones the session at the deepest stage a
// config change leaves intact, Run completes the pipeline.
func NewFlow(nl *Netlist, cfg FlowConfig) (*Flow, error) {
	return core.NewFlow(nl, cfg)
}

// NewSuite builds the experiment suite at the given scale.
func NewSuite(scale exp.Scale) (*Suite, error) { return exp.NewSuite(scale) }
