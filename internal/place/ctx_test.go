package place

import (
	"context"
	"errors"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/powerplan"
)

// TestPlaceCtxCancelled pins the placement cancellation contract for both
// the global and refinement passes: a cancelled context aborts promptly
// with the context cause in the chain.
func TestPlaceCtxCancelled(t *testing.T) {
	nl := smallDesign(t)
	fp, err := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pp := powerplan.Plan(fp)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := GlobalCtx(ctx, nl, fp, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled GlobalCtx = %v, want context.Canceled in chain", err)
	}

	// A full placement over a live context still works on the same design,
	// and the refinement entrypoint observes cancellation too.
	Global(nl, fp, DefaultOptions())
	if err := Legalize(nl, fp, pp.Blockages); err != nil {
		t.Fatal(err)
	}
	if err := RefineCtx(ctx, nl, fp, pp.Blockages, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RefineCtx = %v, want context.Canceled in chain", err)
	}
	if err := RefineCtx(context.Background(), nl, fp, pp.Blockages, 1); err != nil {
		t.Fatalf("RefineCtx on live context: %v", err)
	}
	if err := CheckLegal(nl, fp, pp.Blockages); err != nil {
		t.Fatalf("placement illegal after refine: %v", err)
	}
}
