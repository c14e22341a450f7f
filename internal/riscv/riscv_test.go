package riscv

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/tech"
)

var testLib = cell.NewLibrary(tech.NewFFET())

// smallCore generates the reduced 8-register core used by fast tests.
func smallCore(t testing.TB) (*Harness, *ISS) {
	t.Helper()
	nl, info, err := Generate(testLib, Config{Name: "rv32_test", Registers: 8})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	imem, dmem := NewMemory(), NewMemory()
	h, err := NewHarness(nl, info, imem, dmem)
	if err != nil {
		t.Fatalf("NewHarness: %v", err)
	}
	iss := NewISS(imem, dmem.Clone(), 8)
	return h, iss
}

// cosim loads a program, runs both models n steps, and compares
// architectural state every cycle.
func cosim(t *testing.T, prog []uint32, n int) (*Harness, *ISS) {
	t.Helper()
	h, iss := smallCore(t)
	h.IMem.LoadProgram(0, prog)
	iss.IMem = h.IMem
	h.Reset()
	if pc := h.PC(); pc != 0 {
		t.Fatalf("PC after reset = %#x, want 0", pc)
	}
	for i := 0; i < n; i++ {
		h.StepCycle()
		if err := iss.Step(); err != nil {
			t.Fatalf("ISS step %d: %v", i, err)
		}
		if h.PC() != iss.PC {
			t.Fatalf("step %d: PC gate=%#x iss=%#x", i, h.PC(), iss.PC)
		}
		for r := 1; r < 8; r++ {
			if g, w := h.Reg(r), iss.reg(uint32(r)); g != w {
				t.Fatalf("step %d: x%d gate=%#x iss=%#x", i, r, g, w)
			}
		}
	}
	if !h.DMem.Equal(iss.DMem) {
		t.Fatal("data memories diverged")
	}
	return h, iss
}

func TestGeneratedCoreSize(t *testing.T) {
	nl, _, err := Generate(testLib, DefaultConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st := nl.Stats()
	if st.Instances < 4000 {
		t.Errorf("full core has %d instances; expected a few thousand", st.Instances)
	}
	if st.Flops < 1024+30 {
		t.Errorf("full core has %d flops, want >= 1054 (regfile+PC)", st.Flops)
	}
	t.Logf("rv32 core: %d instances, %d flops, %d nets, %.1f µm² cell area",
		st.Instances, st.Flops, st.Nets, st.AreaUm2)
}

func TestArithmeticProgram(t *testing.T) {
	prog := []uint32{
		ADDI(1, 0, 5),  // x1 = 5
		ADDI(2, 0, 7),  // x2 = 7
		ADD(3, 1, 2),   // x3 = 12
		SUB(4, 1, 2),   // x4 = -2
		XOR(5, 1, 2),   // x5 = 2
		OR(6, 1, 2),    // x6 = 7
		AND(7, 1, 2),   // x7 = 5
		SLLI(3, 1, 4),  // x3 = 80
		SRAI(4, 4, 1),  // x4 = -1
		SLT(5, 4, 1),   // x5 = 1 (-1 < 5)
		SLTU(6, 4, 1),  // x6 = 0 (0xFFFF.. > 5)
		ADDI(7, 7, -6), // x7 = -1
		SRLI(7, 7, 28), // x7 = 0xF
	}
	h, _ := cosim(t, prog, len(prog))
	// Spot-check a few final values against hand calculation.
	if got := h.Reg(3); got != 80 {
		t.Errorf("x3 = %d, want 80", got)
	}
	if got := h.Reg(4); got != 0xFFFFFFFF {
		t.Errorf("x4 = %#x, want -1", got)
	}
	if got := h.Reg(5); got != 1 {
		t.Errorf("x5 = %d, want 1", got)
	}
	if got := h.Reg(7); got != 0xF {
		t.Errorf("x7 = %#x, want 0xF", got)
	}
}

func TestBranchesAndLoops(t *testing.T) {
	// Sum 1..5 with a loop:
	//   x1 = counter = 5; x2 = acc = 0
	// loop: x2 += x1; x1 -= 1; bne x1, x0, loop
	prog := []uint32{
		ADDI(1, 0, 5),
		ADDI(2, 0, 0),
		ADD(2, 2, 1),   // pc=8
		ADDI(1, 1, -1), // pc=12
		BNE(1, 0, -8),  // pc=16 -> 8
		ADDI(3, 0, 99), // pc=20 (after loop)
	}
	h, _ := cosim(t, prog, 2+3*5+1)
	if got := h.Reg(2); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
	if got := h.Reg(3); got != 99 {
		t.Errorf("x3 = %d, want 99 (loop exit)", got)
	}
}

func TestJumpsAndLinks(t *testing.T) {
	prog := []uint32{
		JAL(1, 12),     // pc=0 -> 12, x1 = 4
		ADDI(2, 0, 1),  // pc=4 (skipped, then executed after JALR)
		JAL(0, 12),     // pc=8 -> 20 (exit)
		ADDI(3, 0, 7),  // pc=12
		JALR(4, 1, 0),  // pc=16 -> x1(4), x4 = 20
		ADDI(5, 0, 42), // pc=20 exit block
	}
	h, _ := cosim(t, prog, 6)
	if got := h.Reg(1); got != 4 {
		t.Errorf("link x1 = %d, want 4", got)
	}
	if got := h.Reg(3); got != 7 {
		t.Errorf("x3 = %d, want 7", got)
	}
	if got := h.Reg(4); got != 20 {
		t.Errorf("link x4 = %d, want 20", got)
	}
	if got := h.Reg(2); got != 1 {
		t.Errorf("x2 = %d, want 1 (JALR return)", got)
	}
	if got := h.Reg(5); got != 42 {
		t.Errorf("x5 = %d, want 42", got)
	}
}

func TestLoadStore(t *testing.T) {
	prog := []uint32{
		LUI(1, 0x10),   // x1 = 0x10000 (data segment base)
		ADDI(2, 0, -2), // x2 = 0xFFFFFFFE
		SW(2, 1, 0),    // [0x10000] = FFFFFFFE
		LW(3, 1, 0),    // x3 = FFFFFFFE
		LB(4, 1, 0),    // x4 = sext(0xFE) = -2
		LBU(5, 1, 0),   // x5 = 0xFE
		LH(6, 1, 0),    // x6 = sext(0xFFFE)
		LHU(7, 1, 0),   // x7 = 0xFFFE
		SB(2, 1, 5),    // byte lane 1 of word 1
		SH(2, 1, 10),   // half lane 1 of word 2
		LW(4, 1, 4),
		LW(5, 1, 8),
	}
	h, _ := cosim(t, prog, len(prog))
	if got := h.Reg(3); got != 0xFFFFFFFE {
		t.Errorf("LW = %#x", got)
	}
	if got := h.Reg(4); got != 0x0000FE00 {
		t.Errorf("word after SB = %#x, want 0x0000FE00", got)
	}
	if got := h.Reg(5); got != 0xFFFE0000 {
		t.Errorf("word after SH = %#x, want 0xFFFE0000", got)
	}
	if got := h.Reg(7); got != 0xFFFE {
		t.Errorf("LHU = %#x", got)
	}
}

func TestLUIAUIPC(t *testing.T) {
	prog := []uint32{
		LUI(1, 0xABCDE),  // x1 = 0xABCDE000
		AUIPC(2, 0x1),    // x2 = 4 + 0x1000
		ADDI(3, 1, 0x7F), // x3 = 0xABCDE07F
	}
	h, _ := cosim(t, prog, len(prog))
	if got := h.Reg(1); got != 0xABCDE000 {
		t.Errorf("LUI = %#x", got)
	}
	if got := h.Reg(2); got != 0x1004 {
		t.Errorf("AUIPC = %#x, want 0x1004", got)
	}
	if got := h.Reg(3); got != 0xABCDE07F {
		t.Errorf("x3 = %#x", got)
	}
}

func TestX0IsAlwaysZero(t *testing.T) {
	prog := []uint32{
		ADDI(0, 0, 123), // write to x0 must be ignored on read
		ADD(1, 0, 0),    // x1 = 0
		ADDI(2, 0, 9),
	}
	h, _ := cosim(t, prog, len(prog))
	if got := h.Reg(1); got != 0 {
		t.Errorf("x1 = %d, want 0 (x0 reads as zero)", got)
	}
	if got := h.Reg(2); got != 9 {
		t.Errorf("x2 = %d", got)
	}
}

// TestRandomProgramCosim fuzzes the core against the ISS with random but
// well-formed straight-line arithmetic programs.
func TestRandomProgramCosim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		var prog []uint32
		// Seed registers.
		for r := uint32(1); r < 8; r++ {
			prog = append(prog, ADDI(r, 0, int32(rng.Intn(2048)-1024)))
		}
		ops := []func(rd, rs1, rs2 uint32) uint32{
			ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
		}
		for i := 0; i < 40; i++ {
			rd := uint32(1 + rng.Intn(7))
			rs1 := uint32(rng.Intn(8))
			rs2 := uint32(rng.Intn(8))
			switch rng.Intn(4) {
			case 0:
				prog = append(prog, ADDI(rd, rs1, int32(rng.Intn(2048)-1024)))
			case 1:
				prog = append(prog, XORI(rd, rs1, int32(rng.Intn(2048)-1024)))
			default:
				prog = append(prog, ops[rng.Intn(len(ops))](rd, rs1, rs2))
			}
		}
		cosim(t, prog, len(prog))
	}
}

func TestMemoryModel(t *testing.T) {
	m := NewMemory()
	m.StoreWord(0x100, 0xDDCCBBAA, 0xF)
	if got := m.LoadWord(0x100); got != 0xDDCCBBAA {
		t.Errorf("LoadWord = %#x", got)
	}
	if got := m.LoadWord(0x102); got != 0xDDCCBBAA {
		t.Errorf("unaligned-addr word fetch = %#x (same word)", got)
	}
	m.StoreWord(0x100, 0x000000EE, 0x1)
	if got := m.LoadWord(0x100); got != 0xDDCCBBEE {
		t.Errorf("byte-enable store = %#x", got)
	}
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone not equal")
	}
	c.StoreWord(0x200, 1, 0xF)
	if m.Equal(c) {
		t.Error("diverged memories reported equal")
	}
}

// TestGenerateRegisterCounts: only 8, 16 and 32 registers have a
// register-address width the decoder supports; any other count must be
// an error from Generate, never a panic mid-build.
func TestGenerateRegisterCounts(t *testing.T) {
	for _, tc := range []struct {
		regs int
		ok   bool
	}{
		{0, false}, {7, false}, {64, false},
		{8, true}, {16, true}, {32, true},
	} {
		nl, info, err := Generate(testLib, Config{Name: "rv32_regs", Registers: tc.regs})
		if !tc.ok {
			if err == nil {
				t.Errorf("Registers=%d: Generate succeeded, want an error", tc.regs)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Registers=%d: %v", tc.regs, err)
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("Registers=%d: Validate: %v", tc.regs, err)
		}
		if len(info.RegFlop) != tc.regs {
			t.Errorf("Registers=%d: %d register rows", tc.regs, len(info.RegFlop))
		}
		// A 32-bit register file plus PC[31:2].
		if got, want := nl.Stats().Flops, 32*tc.regs+30; got != want {
			t.Errorf("Registers=%d: %d flops, want %d", tc.regs, got, want)
		}
	}
}
