package sta

import "unsafe"

// FootprintBytes estimates the engine's retained heap bytes: the flat
// graph/arrival/RC tables, the flop endpoint state, the cone-walk
// adjacency and scratch, and the flattened NLDM blocks. The bound netlist
// is deliberately not counted — the session that owns the engine retains
// (and accounts for) the netlist separately, and double-counting it would
// skew any cache budget the estimate feeds. An accounting estimate, not
// an exact heap measurement.
func (e *Engine) FootprintBytes() int64 {
	if e == nil {
		return 0
	}
	const (
		ptrSize = int64(unsafe.Sizeof(uintptr(0)))
		i32     = int64(unsafe.Sizeof(int32(0)))
		f64     = int64(unsafe.Sizeof(float64(0)))
	)
	b := int64(unsafe.Sizeof(*e))
	b += ptrSize * int64(len(e.order)+len(e.flops))
	b += i32 * int64(len(e.arcStart)+len(e.arcNet)+len(e.arcSink)+len(e.arcFlat)+
		len(e.outSeq)+len(e.dNet)+len(e.dSink)+len(e.qNet)+len(e.from)+
		len(e.levelOf)+len(e.driverOf)+len(e.consStart)+len(e.consInst)+
		len(e.dfStart)+len(e.dFlop)+len(e.qFlopOf)+
		len(e.instNext)+len(e.levelHead)+len(e.endList))
	b += i32 * int64(len(e.stamp)+len(e.rcStamp)+len(e.valStamp)+
		len(e.instStamp)+len(e.endStamp)) // uint32 tables
	b += f64 * int64(len(e.arr)+len(e.slew)+len(e.loadFF)+len(e.wireArc)+
		len(e.wireD)+len(e.endNeed)+len(e.endArr)+len(e.baseClk))
	b += int64(len(e.endOK))
	b += int64(len(e.flats)) * int64(unsafe.Sizeof(flatArc{}))
	for i := range e.flats {
		f := &e.flats[i]
		b += f64 * int64(len(f.slews)+len(f.loads)+len(f.blk))
	}
	return b
}
