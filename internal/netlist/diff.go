// Synth-aware netlist diffing. Two synthesized netlists of the same arch
// at neighboring frequency targets differ mostly in drive resizing: the
// generator and the buffering passes are target-independent, so instance
// and net creation order — and therefore Seq — usually coincide, and only
// the sizing pass picked different drive variants. Diff establishes that
// correspondence (or reports that it does not hold) so the staged flow
// can fork a sweep point off its completed neighbor instead of re-running
// global placement.
package netlist

// NetlistDiff is the result of Diff.
type NetlistDiff struct {
	// SeqStable reports that the two netlists are structurally identical —
	// same instances, nets, ports, connectivity and ordering at every Seq —
	// up to drive resizing. All Seq-indexed state (placement arrays, dense
	// STA tables) then corresponds one-to-one between them.
	SeqStable bool

	// Resized lists the Seqs of instances whose cell changed (always a
	// drive change of the same base), sorted ascending; empty unless
	// SeqStable.
	Resized []int32
}

// sameRef reports that two endpoint refs of Seq-corresponding netlists
// denote the same endpoint.
func sameRef(ra, rb PinRef) bool {
	if (ra.Inst == nil) != (rb.Inst == nil) || (ra.Port == nil) != (rb.Port == nil) {
		return false
	}
	if ra.Inst != nil && (ra.Inst.Seq != rb.Inst.Seq || ra.Pin != rb.Pin) {
		return false
	}
	if ra.Port != nil && ra.Port.Seq != rb.Port.Seq {
		return false
	}
	return true
}

// seqCorresponds verifies the full structural correspondence between a and
// b at every Seq, recording resized instances as it goes. On any
// structural difference it reports false; d.Resized is then discarded by
// the caller.
func seqCorresponds(a, b *Netlist, d *NetlistDiff) bool {
	if len(a.Instances) != len(b.Instances) || len(a.Nets) != len(b.Nets) || len(a.Ports) != len(b.Ports) {
		return false
	}
	for i := range a.Instances {
		ia, ib := a.Instances[i], b.Instances[i]
		if ia.Name != ib.Name || ia.Fixed != ib.Fixed || len(ia.conns) != len(ib.conns) {
			return false
		}
		if ia.Cell.Name != ib.Cell.Name {
			if ia.Cell.Base != ib.Cell.Base {
				return false
			}
			d.Resized = append(d.Resized, int32(i))
		}
		for pi := range ia.conns {
			na, nb := ia.conns[pi], ib.conns[pi]
			if (na == nil) != (nb == nil) || (na != nil && na.Seq != nb.Seq) {
				return false
			}
		}
	}
	for i := range a.Nets {
		na, nb := a.Nets[i], b.Nets[i]
		if na.Name != nb.Name || na.IsClock != nb.IsClock || len(na.Sinks) != len(nb.Sinks) {
			return false
		}
		if !sameRef(na.Driver, nb.Driver) {
			return false
		}
		for si := range na.Sinks {
			if !sameRef(na.Sinks[si], nb.Sinks[si]) {
				return false
			}
		}
	}
	for i := range a.Ports {
		pa, pb := a.Ports[i], b.Ports[i]
		if pa.Name != pb.Name || pa.Dir != pb.Dir ||
			(pa.Net == nil) != (pb.Net == nil) || (pa.Net != nil && pa.Net.Seq != pb.Net.Seq) {
			return false
		}
	}
	return true
}

// Diff reports whether b corresponds to a Seq for Seq up to drive
// resizing, and which instances were resized.
func Diff(a, b *Netlist) *NetlistDiff {
	d := &NetlistDiff{}
	if !seqCorresponds(a, b, d) {
		return &NetlistDiff{}
	}
	d.SeqStable = true
	return d
}
