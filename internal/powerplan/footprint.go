package powerplan

import (
	"unsafe"

	"repro/internal/def"
	"repro/internal/geom"
)

// FootprintBytes estimates the power plan's retained heap bytes: stripes,
// tap cells, nTSVs, the legalizer blockage map, and the lazily built tap
// component list. An accounting estimate for cache budgeting, not an
// exact heap measurement.
func (r *Result) FootprintBytes() int64 {
	if r == nil {
		return 0
	}
	b := int64(unsafe.Sizeof(*r)) + int64(len(r.Reason))
	b += int64(len(r.Stripes)) * int64(unsafe.Sizeof(Stripe{}))
	for i := range r.Stripes {
		b += int64(len(r.Stripes[i].Net))
	}
	b += int64(len(r.Taps)) * int64(unsafe.Sizeof(TapCell{}))
	for i := range r.Taps {
		b += int64(len(r.Taps[i].Name))
	}
	b += int64(len(r.NTSVs)) * int64(unsafe.Sizeof(geom.Point{}))
	for _, ivs := range r.Blockages {
		b += 24 + int64(unsafe.Sizeof([]geom.Interval{})) // map slot share
		b += int64(len(ivs)) * int64(unsafe.Sizeof(geom.Interval{}))
	}
	// tapComps aliases name strings counted with Taps above; count the
	// slice of pointers plus the component structs themselves.
	b += int64(len(r.tapComps)) * (int64(unsafe.Sizeof(uintptr(0))) + int64(unsafe.Sizeof(def.Component{})))
	return b
}
