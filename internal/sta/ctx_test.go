package sta

import (
	"context"
	"errors"
	"testing"

	"repro/internal/netlist"
)

// TestAnalyzeCtxCancelled pins the cancellation contract: a cancelled
// context aborts the propagation with the context cause in the chain, and
// the engine drops its retained basis so the next incremental call falls
// back to a full — and correct — analysis.
func TestAnalyzeCtxCancelled(t *testing.T) {
	nl := pipeline(t, 4)
	e, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res Result
	if err := e.AnalyzeIntoCtx(ctx, &res, Input{}, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled analyze = %v, want context.Canceled in chain", err)
	}

	requireFullAfterCancel(t, nl, e)
}

// TestReanalyzeCtxCancelled covers the incremental path's cancel check,
// which drops the retained basis just like a cancelled full pass.
func TestReanalyzeCtxCancelled(t *testing.T) {
	nl := pipeline(t, 4)
	e, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Input{}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = e.ReanalyzeStateCtx(ctx, Input{}, DefaultOptions(), []int32{int32(nl.Net("s1").Seq)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled re-timing = %v, want context.Canceled in chain", err)
	}
	requireFullAfterCancel(t, nl, e)
}

// requireFullAfterCancel asserts that the half-propagated state of a
// cancelled call is not trusted: the next re-timing must run full (not
// incremental) and match a fresh engine's answer exactly.
func requireFullAfterCancel(t *testing.T, nl *netlist.Netlist, e *Engine) {
	t.Helper()
	var got Result
	if err := reanalyze(e, &got, Input{}, DefaultOptions(), nil); err != nil {
		t.Fatalf("re-timing after cancel: %v", err)
	}
	if e.Stats().Incremental {
		t.Error("re-timing after cancel ran incrementally off a dropped basis")
	}
	want, err := Analyze(nl, Input{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-cancel", &got, want)
}
