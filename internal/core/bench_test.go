package core

import (
	"testing"

	"repro/internal/tech"
)

// BenchmarkBuildDEF measures Flow.DEF on a routed quick-scale design:
// rendering both per-side physical databases (pin names resolved from
// packed PinIDs at this serialization boundary) and merging them. The
// flow runs to StageRoute once outside the loop.
func BenchmarkBuildDEF(b *testing.B) {
	cfg := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	cfg.BackPinFraction = 0.5
	f, err := NewFlow(smallCore(b, ffetLib), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := f.RunTo(StageRoute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := f.DEF(); err != nil {
			b.Fatal(err)
		}
	}
}
