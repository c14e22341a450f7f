package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/tech"
	"repro/internal/variation"
)

// designDigestFlows is how many leading flows the design digest covers;
// every run completes at least this many, so equal seeds compare.
const designDigestFlows = 16

// designMCSamples is the size of the study after each valid flow.
const designMCSamples = 1024

// designGateFlows is how many valid flows the gate re-runs for the
// worker-count and co-simulation checks.
const designGateFlows = 2

// designStratum is one box of the configuration space. A cycle of the
// stream takes designLevels configurations from every stratum, one per
// level of a Latin hypercube over the box (target, utilization and back
// pins take different level orders), at the level's center. The grid is
// fixed: seeded jitter moved single congested flows' routing time
// threefold, so the seed instead orders the grid and seeds each study.
// Every block of len(designStrata) consecutive flows holds one flow per
// stratum, its levels a row of a Latin square, so blocks cost about the
// same and a run covers the space in the same proportions whatever its
// seed or length. The two congested strata set the flow tail.
type designStratum struct {
	arch        tech.Arch
	front, back int
	tLo, tHi    float64
	uLo, uHi    float64
	bpLo, bpHi  float64
}

var designStrata = []designStratum{
	{tech.FFET, 12, 12, 1.0, 2.5, 0.60, 0.78, 0.10, 0.50},
	{tech.FFET, 8, 8, 1.0, 2.5, 0.60, 0.76, 0.15, 0.50},
	{tech.FFET, 6, 6, 1.0, 2.5, 0.60, 0.76, 0.15, 0.50},
	{tech.FFET, 4, 4, 1.0, 2.5, 0.60, 0.76, 0.25, 0.50},
	// FM4BM4 with nearly every pin on the front: the router congests and
	// the result is invalid.
	{tech.FFET, 4, 4, 1.2, 2.2, 0.69, 0.73, 0.04, 0.055},
	{tech.FFET, 12, 0, 1.0, 2.5, 0.60, 0.78, 0, 0},
	{tech.CFET, 12, 0, 1.0, 2.5, 0.60, 0.76, 0, 0},
	// Dense CFET: longer negotiation on the front side alone.
	{tech.CFET, 12, 0, 1.0, 2.5, 0.76, 0.785, 0, 0},
}

// designLevels is the number of Latin-hypercube levels per stratum.
const designLevels = 5

// designSpec is one generated flow of the design workload.
type designSpec struct {
	Arch      tech.Arch
	Pattern   tech.Pattern
	TargetGHz float64
	Util      float64
	BackPins  float64
	MCSeed    uint64
}

func (d designSpec) config() core.FlowConfig {
	cfg := core.DefaultFlowConfig(d.Pattern, d.TargetGHz, d.Util)
	cfg.BackPinFraction = d.BackPins
	return cfg
}

func (d designSpec) String() string {
	return fmt.Sprintf("%s %s t=%.3f u=%.3f bp=%.3f", d.Arch, d.Pattern, d.TargetGHz, d.Util, d.BackPins)
}

// designSpecAt returns flow i of the seed's stream; it depends on (seed,
// i) alone.
func designSpecAt(seed uint64, i int) designSpec {
	n := len(designStrata)
	cycle, k := i/(n*designLevels), i%(n*designLevels)
	order := rand.New(rand.NewPCG(seed, uint64(cycle)))
	block := order.Perm(designLevels)[k/n]
	var perm []int
	for b := 0; b <= k/n; b++ {
		perm = order.Perm(n)
	}
	si := perm[k%n]
	st := designStrata[si]
	level := (block + si) % designLevels
	at := func(lo, hi float64, l int) float64 {
		return lo + (hi-lo)*(float64(l)+0.5)/designLevels
	}
	d := designSpec{
		Arch:      st.arch,
		Pattern:   tech.Pattern{Front: st.front, Back: st.back},
		TargetGHz: at(st.tLo, st.tHi, level),
		Util:      at(st.uLo, st.uHi, (2*level)%designLevels),
		MCSeed:    rand.New(rand.NewPCG(seed, 1<<32|uint64(i))).Uint64()>>1 | 1,
	}
	if st.bpHi > 0 {
		d.BackPins = at(st.bpLo, st.bpHi, (3*level)%designLevels)
	}
	return d
}

// designWL implements independent 32-register cores from scratch: no
// fork, memo or checkpoint is ever reused.
type designWL struct {
	nl   map[tech.Arch]*netlist.Netlist
	info *riscv.CoreInfo
	// done are the untraced results in input order; gate re-checks some.
	done []designDone
}

type designDone struct {
	spec   designSpec
	digest string
	mc     *variation.Summary
}

func (w *designWL) setup(*bench) error {
	lib := cell.NewLibrary(tech.NewFFET())
	nlF, info, err := riscv.Generate(lib, riscv.Config{Name: "rv32", Registers: 32})
	if err != nil {
		return err
	}
	nlC, err := nlF.Remap(cell.NewLibrary(tech.NewCFET()))
	if err != nil {
		return err
	}
	w.nl = map[tech.Arch]*netlist.Netlist{tech.FFET: nlF, tech.CFET: nlC}
	w.info = info
	return nil
}

func (w *designWL) teardown() { w.nl, w.info = nil, nil }

func (w *designWL) run(b *bench) error {
	b.digestNote = fmt.Sprintf("over the first %d flows and their studies", designDigestFlows)
	// Runs end on a block boundary, so every run holds each stratum
	// equally often.
	for i := 0; b.elapsed() < b.budget() || i%len(designStrata) != 0 || i < designDigestFlows; i++ {
		spec := designSpecAt(b.seed, i)
		// A traced run implements every design twice, untraced and
		// traced, alternating which goes first.
		order := []bool{false}
		if b.traced {
			order = []bool{i%2 == 1, i%2 == 0}
		}
		var got [2]designDone
		for _, traced := range order {
			d, err := w.flow(b, spec, traced)
			if err != nil {
				return err
			}
			got[btoi(traced)] = d
		}
		d := got[0]
		if b.traced && got[1].digest != d.digest {
			b.mismatch("flow %d (%s): traced rerun differs", i, spec)
		}
		if i < designDigestFlows {
			b.digest.Write([]byte(d.digest))
		}
		w.done = append(w.done, d)
	}
	return nil
}

func btoi(v bool) int {
	if v {
		return 1
	}
	return 0
}

// flow implements one design stage by stage, as cmd/ffetflow does, then
// samples a study on its timing checkpoint when the result is valid.
func (w *designWL) flow(b *bench, spec designSpec, traced bool) (designDone, error) {
	ph, tr := b.phaseFor(traced)
	var probe *rtProbe
	if traced {
		probe = startRT()
	}
	req := tr.request()
	out := designDone{spec: spec}
	b.attempted++
	t0 := time.Now()
	root := tr.open("design.flow", 0, req)
	f, err := core.NewFlow(w.nl[spec.Arch], spec.config())
	if err != nil {
		return out, fmt.Errorf("%s: %w", spec, err)
	}
	for s := core.StageSynth; int(s) < core.NumStages; s++ {
		ts := time.Now()
		sp := tr.open("core."+s.String(), root, req)
		err := f.RunTo(s)
		tr.close(sp)
		ph.layer[s.String()+".busy_s"] += time.Since(ts).Seconds()
		if err != nil {
			tr.close(root)
			b.fail("%s: %v", spec, err)
			return out, nil
		}
		if s == core.StagePlace {
			ph.layer["place.cells"] += float64(len(f.Workspace().Instances))
		}
		if f.Halted() {
			break
		}
	}
	lat := time.Since(t0).Seconds()
	tr.close(root)
	res := f.Result()
	ph.opLat = append(ph.opLat, lat)
	ph.ops++
	ph.units++
	ph.layer["cts.buffers"] += float64(res.CTSBuffers)
	for _, side := range []tech.Side{tech.Front, tech.Back} {
		if rr := f.RouteResult(side); rr != nil {
			for _, t := range rr.Trees {
				if t != nil {
					ph.layer["route.nets"]++
				}
			}
			ph.layer["route.overflow_edges"] += float64(rr.DRVs)
		}
	}
	var h bytes.Buffer
	flowDigest(&h, res)
	if res.Valid {
		basis, err := f.VariationBasis()
		if err != nil {
			return out, fmt.Errorf("%s: %w", spec, err)
		}
		st := basis.Engine.Stats()
		ph.layer["sta.cells_timed"] += float64(st.RecomputedCells)
		ph.layer["sta.endpoints_timed"] += float64(st.RecomputedEndpoints)
		opt := variation.DefaultOptions()
		opt.Samples = designMCSamples
		opt.Seed = spec.MCSeed
		mcReq := tr.request()
		tm := time.Now()
		sp := tr.open("variation.NewSampler", 0, mcReq)
		smp, err := variation.NewSampler(basis, opt)
		tr.close(sp)
		tb := time.Now()
		if err != nil {
			return out, fmt.Errorf("%s: sampler: %w", spec, err)
		}
		sp = tr.open("variation.Run", 0, mcReq)
		sum, err := smp.Run(context.Background())
		tr.close(sp)
		end := time.Now()
		b.attempted++
		if err != nil {
			b.fail("%s: study: %v", spec, err)
		} else {
			ph.mcRates = append(ph.mcRates, float64(sum.Samples)/end.Sub(tm).Seconds())
			ph.layer["variation.build_s"] += tb.Sub(tm).Seconds()
			ph.layer["variation.run_s"] += end.Sub(tb).Seconds()
			ph.layer["variation.samples"] += float64(sum.Samples)
			ph.layer["variation.candidates"] += float64(smp.Candidates())
			mcDigest(&h, sum)
			out.mc = sum
		}
	} else {
		ph.layer["flow.invalid"]++
	}
	d := time.Since(t0).Seconds()
	ph.wall += d
	// Throughput is taken per block: each block holds one flow per
	// stratum, so every sample covers the same mix.
	ph.blockWall += d
	if ph.ops%len(designStrata) == 0 {
		ph.opRates = append(ph.opRates, float64(len(designStrata))/ph.blockWall)
		ph.blockWall = 0
	}
	if probe != nil {
		probe.finish(&ph.rt)
	}
	sh := sha256.Sum256(h.Bytes())
	out.digest = hex.EncodeToString(sh[:])
	return out, nil
}

// flowDigest writes every metric of a result at full precision.
func flowDigest(w *bytes.Buffer, r *core.FlowResult) {
	fmt.Fprintf(w, "valid=%v reason=%q core=%dx%d drvs=%d/%d vias=%d ctsbufs=%d synbufs=%d rerouted=%d\n",
		r.Valid, r.Reason, r.CoreW, r.CoreH, r.DRVsFront, r.DRVsBack, r.Vias, r.CTSBuffers, r.SynthBuffers, r.Rerouted)
	for _, m := range []struct {
		n string
		v float64
	}{
		{"core_area", r.CoreAreaUm2}, {"real_util", r.RealUtilization}, {"cell_area", r.CellAreaUm2},
		{"hpwl", r.HPWLUm}, {"wl_front", r.WirelenFrontUm}, {"wl_back", r.WirelenBackUm},
		{"freq", r.AchievedFreqGHz}, {"period", r.MinPeriodPs}, {"power", r.PowerUW}, {"eff", r.EffGHzPerW},
	} {
		writeG(w, m.n, m.v)
	}
}

// mcDigest writes a study summary, per-sample results included.
func mcDigest(w *bytes.Buffer, s *variation.Summary) {
	fmt.Fprintf(w, "samples=%d\n", s.Samples)
	for _, v := range []float64{s.MeanWNSPs, s.SigmaWNSPs, s.P50WNSPs, s.P95WNSPs, s.P997WNSPs,
		s.MeanTNSPs, s.SigmaTNSPs, s.P50TNSPs, s.P95TNSPs, s.P997TNSPs} {
		writeG(w, "mc", v)
	}
	for i := range s.WNSPs {
		fmt.Fprintf(w, "%.17g %.17g\n", s.WNSPs[i], s.TNSPs[i])
	}
}

// gate re-implements the first valid flows from scratch: the synthesized
// netlist must co-simulate a seeded RV32I program exactly like the ISS,
// the result must match the timed run, and a single-worker study must
// reproduce the timed run's multi-worker summary.
func (w *designWL) gate(b *bench) error {
	checked := 0
	for i, d := range w.done {
		if d.mc == nil || checked == designGateFlows {
			continue
		}
		checked++
		f, err := core.NewFlow(w.nl[d.spec.Arch], d.spec.config())
		if err != nil {
			return err
		}
		if err := f.RunTo(core.StageSynth); err != nil {
			return err
		}
		if err := cosim(f.Workspace(), w.info, b.seed^uint64(i)); err != nil {
			return fmt.Errorf("flow %d (%s): %w", i, d.spec, err)
		}
		res, err := f.Run()
		if err != nil {
			return err
		}
		basis, err := f.VariationBasis()
		if err != nil {
			return err
		}
		opt := variation.DefaultOptions()
		opt.Samples = designMCSamples
		opt.Seed = d.spec.MCSeed
		opt.Workers = 1
		sum, err := variation.Study(context.Background(), basis, opt)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(sum, d.mc) {
			return fmt.Errorf("flow %d (%s): study at 1 worker differs from %d workers", i, d.spec, variation.DefaultOptions().Workers)
		}
		var h bytes.Buffer
		flowDigest(&h, res)
		mcDigest(&h, sum)
		if sh := sha256.Sum256(h.Bytes()); hex.EncodeToString(sh[:]) != d.digest {
			return fmt.Errorf("flow %d (%s): scratch rerun differs from the timed run", i, d.spec)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no valid flow to check")
	}
	b.note("design calls NewFlow, RunTo, VariationBasis, NewSampler and Sampler.Run only: no Fork, memo or checkpoint reuse")
	b.note("gate: %d flows re-run; co-simulation matches the ISS; studies identical at 1 and %d workers",
		checked, variation.DefaultOptions().Workers)
	return nil
}

// cosimSteps is the length of the co-simulated program.
const cosimSteps = 48

// cosim runs a seeded straight-line RV32I program on the gate-level
// netlist and on the ISS, comparing PC and every register each cycle and
// data memory at the end.
func cosim(nl *netlist.Netlist, info *riscv.CoreInfo, seed uint64) error {
	prog := rvProgram(seed, cosimSteps)
	imem, dmem := riscv.NewMemory(), riscv.NewMemory()
	imem.LoadProgram(0, prog)
	h, err := riscv.NewHarness(nl, info, imem, dmem)
	if err != nil {
		return err
	}
	iss := riscv.NewISS(imem, dmem.Clone(), 32)
	h.Reset()
	for step := 0; iss.PC < uint32(4*len(prog)); step++ {
		h.StepCycle()
		if err := iss.Step(); err != nil {
			return fmt.Errorf("iss step %d: %w", step, err)
		}
		if h.PC() != iss.PC {
			return fmt.Errorf("cosim step %d: pc gate=%#x iss=%#x", step, h.PC(), iss.PC)
		}
		for r := 1; r < 32; r++ {
			if g, want := h.Reg(r), iss.Regs[r]; g != want {
				return fmt.Errorf("cosim step %d: x%d gate=%#x iss=%#x", step, r, g, want)
			}
		}
	}
	if !h.DMem.Equal(iss.DMem) {
		return fmt.Errorf("cosim: data memories diverged")
	}
	return nil
}

// rvProgram draws n straight-line RV32I instructions: ALU and immediate
// ops over all 31 registers, byte and word memory traffic, and forward
// branches and jumps that skip at most one instruction.
func rvProgram(seed uint64, n int) []uint32 {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	reg := func() uint32 { return 1 + r.Uint32N(31) }
	imm := func() int32 { return int32(r.IntN(4096)) - 2048 }
	prog := make([]uint32, 0, n)
	for len(prog) < n {
		rd, a, c := reg(), reg(), reg()
		var ins uint32
		switch r.IntN(12) {
		case 0:
			ins = riscv.LUI(rd, r.Uint32N(1<<20))
		case 1:
			ins = riscv.ADDI(rd, a, imm())
		case 2:
			ins = []uint32{riscv.XORI(rd, a, imm()), riscv.ORI(rd, a, imm()), riscv.ANDI(rd, a, imm()),
				riscv.SLTI(rd, a, imm()), riscv.SLTIU(rd, a, imm())}[r.IntN(5)]
		case 3:
			ins = []uint32{riscv.SLLI(rd, a, r.Uint32N(32)), riscv.SRLI(rd, a, r.Uint32N(32)), riscv.SRAI(rd, a, r.Uint32N(32))}[r.IntN(3)]
		case 4, 5:
			ins = []uint32{riscv.ADD(rd, a, c), riscv.SUB(rd, a, c), riscv.XOR(rd, a, c), riscv.OR(rd, a, c), riscv.AND(rd, a, c)}[r.IntN(5)]
		case 6:
			ins = []uint32{riscv.SLL(rd, a, c), riscv.SRL(rd, a, c), riscv.SRA(rd, a, c), riscv.SLT(rd, a, c), riscv.SLTU(rd, a, c)}[r.IntN(5)]
		case 7:
			ins = []uint32{riscv.SW(c, 0, int32(4*r.IntN(16))), riscv.SB(c, 0, int32(r.IntN(64)))}[r.IntN(2)]
		case 8:
			ins = []uint32{riscv.LW(rd, 0, int32(4*r.IntN(16))), riscv.LBU(rd, 0, int32(r.IntN(64)))}[r.IntN(2)]
		case 9:
			ins = []uint32{riscv.BEQ(a, c, 8), riscv.BNE(a, c, 8), riscv.BLT(a, c, 8), riscv.BGEU(a, c, 8)}[r.IntN(4)]
		case 10:
			ins = riscv.JAL(rd, 8)
		default:
			ins = riscv.AUIPC(rd, r.Uint32N(1<<20))
		}
		prog = append(prog, ins)
	}
	return prog
}
