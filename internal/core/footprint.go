package core

import (
	"unsafe"

	"repro/internal/extract"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/route"
)

// FootprintBytes estimates the bytes of heap state this session retains
// as its checkpoint: the working netlist, the synthesis checkpoint when
// the session has copied it, the global placement positions, the
// floorplan/powerplan/CTS/partition/routing/extraction artifacts, the
// timing engine, and the result.
//
// The estimate is an accounting sum for cache budgeting (allocator slack
// and map overhead approximated), deterministic for a quiescent session.
// It must only be called on a session with no RunToCtx in flight — the
// stage bodies write these slots outside the session lock, so measuring a
// running session would race. State a forked child shares with its parent
// (the synthesis checkpoint, positions, engine graph tables) is charged
// to both: a cache holding root and prefix double-counts the shared
// synthesis netlist, which errs on the safe side of a byte budget.
func (f *Flow) FootprintBytes() int64 {
	b := int64(unsafe.Sizeof(*f))

	// Netlists: work, and synthSnap once own has replaced work with the
	// session's copy (before that, the two are one object).
	b += f.work.FootprintBytes()
	if f.synthSnap != f.work {
		b += f.synthSnap.FootprintBytes()
	}
	b += int64(len(f.placed)) * int64(unsafe.Sizeof(geom.Point{}))

	if f.fp != nil {
		b += int64(unsafe.Sizeof(*f.fp))
		b += int64(len(f.fp.Rows)) * int64(unsafe.Sizeof(floorplan.Row{}))
	}
	b += f.pp.FootprintBytes()
	if f.ctsRes != nil {
		b += int64(unsafe.Sizeof(*f.ctsRes))
		b += int64(len(f.ctsRes.ArrivalPs)) * int64(unsafe.Sizeof(float64(0)))
	}
	b += f.pa.footprintBytes()
	b += f.sides.footprintBytes()
	b += f.frontRes.FootprintBytes()
	b += f.backRes.FootprintBytes()

	b += extract.FootprintBytes(f.netRC)
	b += f.staEng.FootprintBytes()

	if f.res != nil {
		b += int64(unsafe.Sizeof(*f.res))
	}
	return b
}

func (pa *PinAssignment) footprintBytes() int64 {
	if pa == nil {
		return 0
	}
	b := int64(unsafe.Sizeof(*pa))
	for k := range pa.sides {
		b += int64(unsafe.Sizeof("")) + int64(len(k)) + 1 + 24 // key + side + slot share
	}
	return b
}

func (sn *SideNets) footprintBytes() int64 {
	if sn == nil {
		return 0
	}
	const (
		ptrSize  = int64(unsafe.Sizeof(uintptr(0)))
		sliceHdr = int64(unsafe.Sizeof([]int32{}))
	)
	b := int64(unsafe.Sizeof(*sn))
	b += int64(len(sn.Front)+len(sn.Back)) * ptrSize
	for _, nets := range [2][]*route.Net{sn.Front, sn.Back} {
		for _, n := range nets {
			b += int64(unsafe.Sizeof(*n)) + int64(len(n.Name))
			b += int64(len(n.Pins)) * int64(unsafe.Sizeof(route.Pin{}))
		}
	}
	b += int64(len(sn.SinkIDs)) * sliceHdr
	for _, s := range sn.SinkIDs {
		b += int64(len(s)) * int64(unsafe.Sizeof(netlist.PinID(0)))
	}
	b += int64(len(sn.SinkCapFF)) * sliceHdr
	for _, s := range sn.SinkCapFF {
		b += int64(len(s)) * int64(unsafe.Sizeof(float64(0)))
	}
	b += int64(len(sn.SinkPos)) * sliceHdr
	for _, s := range sn.SinkPos {
		b += int64(len(s)) * int64(unsafe.Sizeof(int32(0)))
	}
	return b
}
