package riscv

import (
	"fmt"
	"math/bits"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Config controls core generation.
type Config struct {
	Name string
	// Registers is the architectural register count (32 for RV32I; 16 or 8
	// produce smaller cores for fast unit tests — the ISS masks register
	// indices the same way).
	Registers int
}

// DefaultConfig is the full RV32I evaluation core.
func DefaultConfig() Config { return Config{Name: "rv32_core", Registers: 32} }

// CoreInfo records generated structure needed by the co-simulation
// harness and tests: flip-flop instance names for architectural state.
type CoreInfo struct {
	Config Config
	// RegFlop[r][b] is the instance name of register r bit b.
	RegFlop [][]string
	// PCFlop[b] is the instance name of PC bit b (b >= 2; PC[1:0] = 0).
	PCFlop map[int]string
}

// regBits returns the register-address width for the configured count:
// 3, 4 or 5 bits for the 8, 16 or 32 registers Generate accepts.
func (c Config) regBits() int { return bits.Len(uint(c.Registers)) - 1 }

// Generate builds the gate-level RV32I-subset core over lib.
//
// Interface (all scalar ports, little-endian bit suffixes):
//
//	in:  clk, rst_n, imem_rdata_0..31, dmem_rdata_0..31
//	out: imem_addr_0..31, dmem_addr_0..31, dmem_wdata_0..31,
//	     dmem_we, dmem_be_0..3
//
// The core is a single-cycle microarchitecture: fetch, decode, execute,
// memory and writeback settle combinationally within one clock.
func Generate(lib *cell.Library, cfg Config) (*netlist.Netlist, *CoreInfo, error) {
	switch cfg.Registers {
	case 8, 16, 32:
	default:
		return nil, nil, fmt.Errorf("riscv: unsupported register count %d (want 8, 16 or 32)", cfg.Registers)
	}
	if cfg.Name == "" {
		cfg.Name = "rv32_core"
	}
	nl := netlist.New(cfg.Name, lib)
	info := &CoreInfo{Config: cfg, PCFlop: make(map[int]string)}

	nl.AddPort("clk", netlist.In)
	nl.AddPort("rst_n", netlist.In)
	nl.MarkClock("clk")
	instr := make(bus, 32)
	rdata := make(bus, 32)
	for i := 0; i < 32; i++ {
		instr[i] = fmt.Sprintf("imem_rdata_%d", i)
		rdata[i] = fmt.Sprintf("dmem_rdata_%d", i)
		nl.AddPort(instr[i], netlist.In)
		nl.AddPort(rdata[i], netlist.In)
		nl.AddPort(fmt.Sprintf("imem_addr_%d", i), netlist.Out)
		nl.AddPort(fmt.Sprintf("dmem_addr_%d", i), netlist.Out)
		nl.AddPort(fmt.Sprintf("dmem_wdata_%d", i), netlist.Out)
	}
	nl.AddPort("dmem_we", netlist.Out)
	for i := 0; i < 4; i++ {
		nl.AddPort(fmt.Sprintf("dmem_be_%d", i), netlist.Out)
	}

	b := newBuilder(nl, lib, "rst_n")

	// --- Program counter ------------------------------------------------
	// PC[1:0] are hardwired zero; PC[31:2] are resettable flops whose D
	// inputs are wired after next-PC is built.
	pc := make(bus, 32)
	pc[0], pc[1] = b.Const0(), b.Const0()
	pcD := make(bus, 32) // next-PC nets, filled later
	type pcFlop struct {
		bit  int
		inst string
	}
	var pcFlops []pcFlop
	for i := 2; i < 32; i++ {
		dNet := b.fresh("pc_d")
		qNet := b.fresh("pc_q")
		instName := fmt.Sprintf("pc_reg_%d", i)
		nl.MustAdd(instName, lib.MustCell("DFFRSD1"), map[string]string{
			"D": dNet, "CP": "clk", "RN": "rst_n", "SN": b.Const1(), "Q": qNet,
		})
		pc[i] = qNet
		pcD[i] = dNet
		pcFlops = append(pcFlops, pcFlop{i, instName})
		info.PCFlop[i] = instName
	}
	// Drive the instruction address port from PC.
	for i := 0; i < 32; i++ {
		b.drivePort(fmt.Sprintf("imem_addr_%d", i), pc[i])
	}

	// --- Decode ----------------------------------------------------------
	opcode := instr[0:7]
	rdA := instr[7 : 7+cfg.regBits()]
	funct3 := instr[12:15]
	rs1A := instr[15 : 15+cfg.regBits()]
	rs2A := instr[20 : 20+cfg.regBits()]
	f7b5 := instr[30]

	isLUI := b.Eq(opcode, 0x37)
	isAUIPC := b.Eq(opcode, 0x17)
	isJAL := b.Eq(opcode, 0x6F)
	isJALR := b.Eq(opcode, 0x67)
	isBranch := b.Eq(opcode, 0x63)
	isLoad := b.Eq(opcode, 0x03)
	isStore := b.Eq(opcode, 0x23)
	isOPIMM := b.Eq(opcode, 0x13)
	isOP := b.Eq(opcode, 0x33)

	// --- Immediate generation ---------------------------------------------
	sign := instr[31]
	immI := make(bus, 32)
	immS := make(bus, 32)
	immB := make(bus, 32)
	immU := make(bus, 32)
	immJ := make(bus, 32)
	for i := 0; i < 32; i++ {
		switch {
		case i < 12:
			immI[i] = instr[20+i]
		default:
			immI[i] = sign
		}
		switch {
		case i < 5:
			immS[i] = instr[7+i]
		case i < 12:
			immS[i] = instr[25+i-5]
		default:
			immS[i] = sign
		}
		switch {
		case i == 0:
			immB[i] = b.Const0()
		case i < 5:
			immB[i] = instr[8+i-1]
		case i < 11:
			immB[i] = instr[25+i-5]
		case i == 11:
			immB[i] = instr[7]
		default:
			immB[i] = sign
		}
		if i < 12 {
			immU[i] = b.Const0()
		} else {
			immU[i] = instr[i]
		}
		switch {
		case i == 0:
			immJ[i] = b.Const0()
		case i < 11:
			immJ[i] = instr[21+i-1]
		case i == 11:
			immJ[i] = instr[20]
		case i < 20:
			immJ[i] = instr[12+i-12]
		default:
			immJ[i] = sign
		}
	}
	isU := b.Or(isLUI, isAUIPC)
	imm := b.MuxBus(immI, immS, isStore)
	imm = b.MuxBus(imm, immB, isBranch)
	imm = b.MuxBus(imm, immJ, isJAL)
	imm = b.MuxBus(imm, immU, isU)

	// --- Register file -----------------------------------------------------
	regs := make([]bus, cfg.Registers)
	regFlopNames := make([][]string, cfg.Registers)
	wb := make(bus, 32) // writeback data, filled later
	for i := range wb {
		wb[i] = b.fresh("wb")
	}
	regWE := b.fresh("reg_we")
	wdec := b.Decode2(rdA)
	for r := 0; r < cfg.Registers; r++ {
		regs[r] = make(bus, 32)
		regFlopNames[r] = make([]string, 32)
		wen := b.And(regWE, wdec[r])
		for bit := 0; bit < 32; bit++ {
			q := b.fresh(fmt.Sprintf("x%d_q", r))
			d := b.Mux(q, wb[bit], wen)
			instName := fmt.Sprintf("rf_x%d_b%d", r, bit)
			nl.MustAdd(instName, lib.MustCell("DFFD1"), map[string]string{
				"D": d, "CP": "clk", "Q": q,
			})
			regs[r][bit] = q
			regFlopNames[r][bit] = instName
		}
	}
	info.RegFlop = regFlopNames
	rs1nz := b.OrReduce(bus(rs1A))
	rs2nz := b.OrReduce(bus(rs2A))
	rs1Data := b.AndBus(b.MuxTree(regs, rs1A), rs1nz)
	rs2Data := b.AndBus(b.MuxTree(regs, rs2A), rs2nz)

	// --- ALU ---------------------------------------------------------------
	useImm := b.Or(b.Or(isOPIMM, isLoad), b.Or(isStore, isJALR))
	aluB := b.MuxBus(rs2Data, imm, useImm)
	f3is010 := b.Eq(funct3, 2)
	f3is011 := b.Eq(funct3, 3)
	f3is000 := b.Eq(funct3, 0)
	isSLTop := b.And(b.Or(isOP, isOPIMM), b.Or(f3is010, f3is011))
	subOP := b.And(b.And(isOP, f7b5), f3is000)
	sub := b.Or(b.Or(subOP, isSLTop), isBranch)
	bx := make(bus, 32)
	for i := range bx {
		bx[i] = b.Xor(aluB[i], sub)
	}
	addRes, cout := b.Adder(rs1Data, bx, sub)

	andRes := make(bus, 32)
	orRes := make(bus, 32)
	xorRes := make(bus, 32)
	for i := 0; i < 32; i++ {
		andRes[i] = b.And(rs1Data[i], aluB[i])
		orRes[i] = b.Or(rs1Data[i], aluB[i])
		xorRes[i] = b.Xor(rs1Data[i], aluB[i])
	}

	// Shared shifter: reverse operand for left shifts, shift right, reverse
	// back. Reversal is pure wiring; direction costs two mux layers.
	isLeft := b.Eq(funct3, 1)
	shIn := make(bus, 32)
	for i := 0; i < 32; i++ {
		shIn[i] = b.Mux(rs1Data[i], rs1Data[31-i], isLeft)
	}
	fill := b.And(b.And(rs1Data[31], f7b5), b.Inv(isLeft))
	cur := shIn
	for k := 0; k < 5; k++ {
		amt := 1 << uint(k)
		next := make(bus, 32)
		for i := 0; i < 32; i++ {
			from := fill
			if i+amt < 32 {
				from = cur[i+amt]
			}
			next[i] = b.Mux(cur[i], from, aluB[k])
		}
		cur = next
	}
	shOut := make(bus, 32)
	for i := 0; i < 32; i++ {
		shOut[i] = b.Mux(cur[i], cur[31-i], isLeft)
	}

	// Set-less-than.
	signsDiffer := b.Xor(rs1Data[31], aluB[31])
	ltS := b.Mux(addRes[31], rs1Data[31], signsDiffer)
	ltU := b.Inv(cout)
	sltRes := make(bus, 32)
	sltRes[0] = b.Mux(ltS, ltU, funct3[0])
	for i := 1; i < 32; i++ {
		sltRes[i] = b.Const0()
	}

	aluOut := b.MuxTree([]bus{
		addRes, shOut, sltRes, sltRes, xorRes, shOut, orRes, andRes,
	}, funct3)

	// --- Branch resolution ---------------------------------------------------
	eq := b.NorReduceIsZero(b.XorBus(rs1Data, rs2Data))
	takeSel := []bus{
		{eq}, {b.Inv(eq)}, {eq}, {eq},
		{ltS}, {b.Inv(ltS)}, {ltU}, {b.Inv(ltU)},
	}
	take := b.MuxTree(takeSel, funct3)[0]
	doBranch := b.And(isBranch, take)

	// --- Next PC --------------------------------------------------------------
	pc4 := make(bus, 32)
	pc4[0], pc4[1] = b.Const0(), b.Const0()
	inc := b.Incr(pc[2:32])
	copy(pc4[2:], inc)
	tgt, _ := b.Adder(pc, imm, b.Const0())
	jump := b.Or(doBranch, isJAL)
	nextPC := b.MuxBus(pc4, tgt, jump)
	jalrTgt := make(bus, 32)
	copy(jalrTgt, addRes)
	jalrTgt[0] = b.Const0()
	nextPC = b.MuxBus(nextPC, jalrTgt, isJALR)
	for i := 2; i < 32; i++ {
		// Bind the pre-created PC D nets.
		b.inst("BUF", map[string]string{"I": nextPC[i], "Z": pcD[i]})
	}

	// --- Data memory interface --------------------------------------------------
	for i := 0; i < 32; i++ {
		b.drivePort(fmt.Sprintf("dmem_addr_%d", i), addRes[i])
	}
	// Store aligner: rotate rs2 left by 8*addr[1:0]; byte enables mask.
	rot16 := make(bus, 32)
	for i := 0; i < 32; i++ {
		rot16[i] = b.Mux(rs2Data[i], rs2Data[(i+16)%32], addRes[1])
	}
	rot8 := make(bus, 32)
	for i := 0; i < 32; i++ {
		rot8[i] = b.Mux(rot16[i], rot16[(i+24)%32], addRes[0])
	}
	for i := 0; i < 32; i++ {
		b.drivePort(fmt.Sprintf("dmem_wdata_%d", i), rot8[i])
	}
	b.drivePort("dmem_we", isStore)
	// Byte enables: SB -> one-hot(addr[1:0]); SH -> pair; SW -> all.
	a0, a1 := addRes[0], addRes[1]
	isByteSz := b.Eq(funct3[0:2], 0)
	isHalfSz := b.Eq(funct3[0:2], 1)
	isWordSz := b.Eq(funct3[0:2], 2)
	na0, na1 := b.Inv(a0), b.Inv(a1)
	beLane := []string{
		b.And(na1, na0), b.And(na1, a0), b.And(a1, na0), b.And(a1, a0),
	}
	halfLo, halfHi := na1, a1
	beHalf := []string{halfLo, halfLo, halfHi, halfHi}
	for i := 0; i < 4; i++ {
		be := b.And(isByteSz, beLane[i])
		be = b.Or(be, b.And(isHalfSz, beHalf[i]))
		be = b.Or(be, isWordSz)
		b.drivePort(fmt.Sprintf("dmem_be_%d", i), be)
	}

	// Load aligner: rotate read data right by 8*addr[1:0], then extend.
	lrot16 := make(bus, 32)
	for i := 0; i < 32; i++ {
		lrot16[i] = b.Mux(rdata[i], rdata[(i+16)%32], a1)
	}
	lrot8 := make(bus, 32)
	for i := 0; i < 32; i++ {
		lrot8[i] = b.Mux(lrot16[i], lrot16[(i+8)%32], a0)
	}
	unsignedLoad := funct3[2]
	byteSign := b.And(lrot8[7], b.Inv(unsignedLoad))
	halfSign := b.And(lrot8[15], b.Inv(unsignedLoad))
	loadRes := make(bus, 32)
	for i := 0; i < 32; i++ {
		switch {
		case i < 8:
			loadRes[i] = lrot8[i]
		case i < 16:
			loadRes[i] = b.Mux(lrot8[i], byteSign, isByteSz)
		default:
			ext := b.Mux(halfSign, byteSign, isByteSz)
			loadRes[i] = b.Mux(lrot8[i], ext, b.Inv(isWordSz))
		}
	}

	// --- Writeback ---------------------------------------------------------------
	isLink := b.Or(isJAL, isJALR)
	wbData := b.MuxBus(aluOut, loadRes, isLoad)
	wbData = b.MuxBus(wbData, pc4, isLink)
	wbData = b.MuxBus(wbData, imm, isLUI)
	wbData = b.MuxBus(wbData, tgt, isAUIPC)
	for i := 0; i < 32; i++ {
		b.inst("BUF", map[string]string{"I": wbData[i], "Z": wb[i]})
	}
	we := b.Or(b.Or(b.Or(isLUI, isAUIPC), isLink), b.Or(b.Or(isLoad, isOP), isOPIMM))
	b.inst("BUF", map[string]string{"I": we, "Z": regWE})

	_ = pcFlops // names captured in info.PCFlop
	if err := nl.Validate(); err != nil {
		return nil, nil, fmt.Errorf("riscv: generated netlist invalid: %w", err)
	}
	return nl, info, nil
}

// drivePort buffers a net onto a top-level output port net.
func (b *builder) drivePort(port, from string) {
	b.inst("BUF", map[string]string{"I": from, "Z": port})
}
