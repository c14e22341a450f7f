package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// The flow error taxonomy. Every error a Flow entry point (NewFlow,
// RunTo/RunToCtx, Run/RunCtx, Fork, RunFlow/RunFlowCtx) returns carries
// exactly one of these sentinels, matchable with errors.Is, wrapped in a
// *FlowError with stage and config provenance, extractable with errors.As.
var (
	// ErrInvalidConfig reports a structurally impossible FlowConfig
	// (invalid metal pattern, backside pins without backside layers) or
	// an out-of-range or non-finite numeric knob (FlowConfig.Validate).
	ErrInvalidConfig = errors.New("core: invalid flow config")

	// ErrCancelled reports cooperative cancellation: the run's context was
	// cancelled and the pipeline stopped at a stage boundary or inside one
	// of the long inner loops. The context's own error (context.Canceled
	// or context.DeadlineExceeded) stays in the chain.
	ErrCancelled = errors.New("core: flow cancelled")

	// ErrStagePanic reports a stage body that panicked. The panic is
	// contained to the session: the recovered value and stack are in the
	// chain, and only this session dies.
	ErrStagePanic = errors.New("core: stage panicked")

	// ErrStageFailed reports an organic stage failure that fits no more
	// specific class (synthesis, partition, routing or STA errors).
	ErrStageFailed = errors.New("core: stage failed")

	// ErrSessionDead reports a call on a session a previous hard error
	// already killed. The original classified error stays in the chain.
	ErrSessionDead = errors.New("core: flow session dead")

	// ErrForkRace reports a fork/run collision: Fork or RunTo was called
	// while the session was mid-RunTo, or the parent advanced while Fork
	// was copying checkpoint state. The operation fails fast without
	// touching the session; retry once the parent is quiescent.
	ErrForkRace = errors.New("core: concurrent fork/run race")
)

// stageNone marks a FlowError with no stage provenance (config
// validation, which happens before any stage exists).
const stageNone Stage = -1

// FlowError is the structured error the flow layer returns: one taxonomy
// sentinel (Kind), stage and config provenance, and the underlying cause.
// Unwrap exposes both Kind and Err, so errors.Is matches the sentinel and
// anything in the cause chain (e.g. context.Canceled under ErrCancelled,
// or faultinject.ErrInjected under ErrStageFailed).
type FlowError struct {
	Kind   error  // taxonomy sentinel (never nil)
	Stage  Stage  // stage provenance; stageNone when no stage applies
	Config string // config name provenance; "" for an unnamed config
	Err    error  // underlying cause; may be nil when Kind says it all
}

// Error renders the classified error with its provenance.
func (e *FlowError) Error() string {
	msg := e.Kind.Error()
	if e.Stage >= 0 {
		msg += fmt.Sprintf(" [stage %v]", e.Stage)
	}
	if e.Config != "" {
		msg += fmt.Sprintf(" [config %s]", e.Config)
	}
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the taxonomy sentinel and the cause for errors.Is/As.
func (e *FlowError) Unwrap() []error {
	if e.Err == nil {
		return []error{e.Kind}
	}
	return []error{e.Kind, e.Err}
}

// Classify wraps err into the taxonomy if it is not already classified:
// context cancellation maps to ErrCancelled, everything else to
// ErrStageFailed. A *FlowError anywhere in the chain passes through
// unchanged, so provenance is never double-wrapped. Exposed for sweep
// drivers (exp) that fail points with errors of their own.
func Classify(cfgName string, err error) error {
	return classify(stageNone, cfgName, err)
}

// NewPanicError classifies a recovered panic value from a worker outside
// any stage (exp sweep goroutines) as ErrStagePanic.
func NewPanicError(cfgName string, recovered any) error {
	return &FlowError{
		Kind:   ErrStagePanic,
		Stage:  stageNone,
		Config: cfgName,
		Err:    fmt.Errorf("panic: %v", recovered),
	}
}

// classify wraps a stage (or pre-stage) error into the taxonomy.
func classify(stage Stage, cfgName string, err error) error {
	if err == nil {
		return nil
	}
	var fe *FlowError
	if errors.As(err, &fe) {
		return err
	}
	kind := ErrStageFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		kind = ErrCancelled
	}
	return &FlowError{Kind: kind, Stage: stage, Config: cfgName, Err: err}
}

// panicError builds the ErrStagePanic error for a recovered stage panic,
// capturing the stack at the recovery site.
func panicError(stage Stage, cfgName string, recovered any) error {
	return &FlowError{
		Kind:   ErrStagePanic,
		Stage:  stage,
		Config: cfgName,
		Err:    fmt.Errorf("panic: %v\n%s", recovered, debug.Stack()),
	}
}
