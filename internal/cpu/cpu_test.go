package cpu

import (
	"strings"
	"testing"
)

func runProgram(t *testing.T, src string, maxInstrs uint64) *Core {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c, err := NewCore(p)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	c.Run(maxInstrs)
	if !c.Halted() {
		t.Fatalf("program did not halt within %d instructions", maxInstrs)
	}
	return c
}

func TestAssembleBasics(t *testing.T) {
	p, err := Assemble(`
		.text
		addi r1, r0, 5
		add  r2, r1, r1
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 3 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	if p.Instrs[0].Op != OpAddi || p.Instrs[0].Imm != 5 {
		t.Errorf("instr 0 = %v", p.Instrs[0])
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := map[string]string{
		"unknown mnemonic":   "frobnicate r1, r2",
		"bad register":       "add r1, r2, r99",
		"imm out of range":   "addi r1, r0, 100000",
		"undefined label":    "beq r1, r2, nowhere",
		"duplicate label":    "x: nop\nx: nop",
		"instr in data":      ".data\nadd r1, r2, r3",
		"directive in text":  ".text\n.word 5",
		"empty program":      "   # nothing\n",
		"wrong operands":     "add r1, r2",
		"unknown directive":  ".bogus 12",
		"bad float":          ".data\nf: .float zap",
		"bad space":          ".data\ns: .space -4",
		"fp reg for int op":  "add r1, f2, r3",
		"int reg for fp op":  "fadd f1, r2, f3",
		"jalr imm too large": "jalr r1, r2, 70000",
	}
	for name, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error for %q", name, src)
		}
	}
}

func TestArithmetic(t *testing.T) {
	c := runProgram(t, `
		li   r1, 7
		li   r2, 3
		add  r3, r1, r2    # 10
		sub  r4, r1, r2    # 4
		mul  r5, r1, r2    # 21
		div  r6, r1, r2    # 2
		rem  r7, r1, r2    # 1
		and  r8, r1, r2    # 3
		or   r9, r1, r2    # 7
		xor  r10, r1, r2   # 4
		sll  r11, r1, r2   # 56
		srl  r12, r11, r2  # 7
		li   r13, -8
		sra  r14, r13, r2  # -1
		slt  r15, r13, r2  # 1
		sltu r16, r13, r2  # 0 (unsigned -8 is huge)
		halt
	`, 100)
	want := map[int]uint32{
		3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4,
		11: 56, 12: 7, 14: 0xFFFFFFFF, 15: 1, 16: 0,
	}
	for reg, v := range want {
		if c.R[reg] != v {
			t.Errorf("r%d = %#x, want %#x", reg, c.R[reg], v)
		}
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	c := runProgram(t, `
		li r1, 9
		div r2, r1, r0
		rem r3, r1, r0
		halt
	`, 10)
	if c.R[2] != 0 || c.R[3] != 0 {
		t.Errorf("div/rem by zero: r2=%d r3=%d", c.R[2], c.R[3])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	c := runProgram(t, `
		addi r0, r0, 42
		add  r1, r0, r0
		halt
	`, 10)
	if c.R[0] != 0 || c.R[1] != 0 {
		t.Errorf("r0=%d r1=%d, want zeros", c.R[0], c.R[1])
	}
}

func TestLiExpansion(t *testing.T) {
	c := runProgram(t, `
		li r1, 0x12345678
		li r2, -5
		li r3, 32767
		li r4, -32768
		halt
	`, 20)
	if c.R[1] != 0x12345678 {
		t.Errorf("r1 = %#x", c.R[1])
	}
	if int32(c.R[2]) != -5 || int32(c.R[3]) != 32767 || int32(c.R[4]) != -32768 {
		t.Errorf("r2=%d r3=%d r4=%d", int32(c.R[2]), int32(c.R[3]), int32(c.R[4]))
	}
}

func TestMemoryAndData(t *testing.T) {
	c := runProgram(t, `
		.data
		arr:  .word 10, 20, 30
		bytes: .byte 1, 2, 255
		gap:  .space 8
		fs:   .float 1.5
		.text
		la   r1, arr
		lw   r2, 0(r1)     # 10
		lw   r3, 4(r1)     # 20
		lw   r4, 8(r1)     # 30
		la   r5, bytes
		lbu  r6, 2(r5)     # 255
		lb   r7, 2(r5)     # -1
		sw   r4, 0(r1)     # arr[0] = 30
		lw   r8, 0(r1)
		la   r9, fs
		flw  f1, 0(r9)
		fadd f2, f1, f1    # 3.0
		la   r10, gap
		fsw  f2, 0(r10)
		lw   r11, 0(r10)   # bits of 3.0f
		halt
	`, 100)
	if c.R[2] != 10 || c.R[3] != 20 || c.R[4] != 30 {
		t.Errorf("loads: %d %d %d", c.R[2], c.R[3], c.R[4])
	}
	if c.R[6] != 255 || int32(c.R[7]) != -1 {
		t.Errorf("byte loads: %d %d", c.R[6], int32(c.R[7]))
	}
	if c.R[8] != 30 {
		t.Errorf("store/load: %d", c.R[8])
	}
	if c.R[11] != 0x40400000 { // 3.0f
		t.Errorf("fsw bits = %#x, want 0x40400000", c.R[11])
	}
}

func TestHalfwordOps(t *testing.T) {
	c := runProgram(t, `
		.data
		buf: .space 8
		.text
		la  r1, buf
		li  r2, 0xFFFF8001
		sh  r2, 0(r1)
		lh  r3, 0(r1)     # sign-extended 0xFFFF8001 & 0xFFFF = 0x8001 -> -32767
		lhu r4, 0(r1)     # 0x8001
		halt
	`, 20)
	if int32(c.R[3]) != -32767 {
		t.Errorf("lh = %d", int32(c.R[3]))
	}
	if c.R[4] != 0x8001 {
		t.Errorf("lhu = %#x", c.R[4])
	}
}

func TestControlFlowLoop(t *testing.T) {
	// Sum 1..10 with a loop.
	c := runProgram(t, `
		li r1, 10
		li r2, 0        # sum
	loop:
		add r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`, 200)
	if c.R[2] != 55 {
		t.Errorf("sum = %d, want 55", c.R[2])
	}
}

func TestCallRet(t *testing.T) {
	c := runProgram(t, `
		li r1, 5
		call double
		call double
		halt
	double:
		add r1, r1, r1
		ret
	`, 50)
	if c.R[1] != 20 {
		t.Errorf("r1 = %d, want 20", c.R[1])
	}
}

func TestJalrIndirect(t *testing.T) {
	c := runProgram(t, `
		li r1, 6          # index of target
		jalr r2, r1, 0
		halt              # skipped? no: jalr jumps to instr 6
		nop
		nop
		nop
	target:
		li r3, 99
		halt
	`, 20)
	// li expands to one instruction here; count: li(1) jalr(1) halt nop nop nop => target at 6.
	if c.R[3] != 99 {
		t.Errorf("indirect jump failed: r3 = %d", c.R[3])
	}
}

func TestFloatOps(t *testing.T) {
	c := runProgram(t, `
		li r1, 3
		fcvt.s.w f1, r1    # 3.0
		li r2, 4
		fcvt.s.w f2, r2    # 4.0
		fmul f3, f1, f2    # 12.0
		fdiv f4, f3, f2    # 3.0
		fsub f5, f4, f1    # 0.0
		feq  r3, f4, f1    # 1
		flt  r4, f1, f2    # 1
		fle  r5, f2, f1    # 0
		fneg f6, f2
		flt  r6, f6, f1    # -4 < 3 -> 1
		fabs f7, f6
		feq  r7, f7, f2    # 1
		fmin f8, f1, f2
		feq  r8, f8, f1    # 1
		fmax f9, f1, f2
		feq  r9, f9, f2    # 1
		fcvt.w.s r10, f3   # 12
		halt
	`, 100)
	for reg, want := range map[int]uint32{3: 1, 4: 1, 5: 0, 6: 1, 7: 1, 8: 1, 9: 1, 10: 12} {
		if c.R[reg] != want {
			t.Errorf("r%d = %d, want %d", reg, c.R[reg], want)
		}
	}
}

func TestRunOffEndHalts(t *testing.T) {
	p := MustAssemble("nop\nnop")
	c, err := NewCore(p)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(100)
	if !c.Halted() {
		t.Error("running off the end of text should halt")
	}
}

func TestStepInfoOperands(t *testing.T) {
	p := MustAssemble(`
		li  r1, 17
		li  r2, 25
		add r3, r1, r2
		halt
	`)
	c, _ := NewCore(p)
	c.Step()
	c.Step()
	info := c.Step() // the add
	if info.NSrcInt != 2 || info.SrcInt[0] != 17 || info.SrcInt[1] != 25 {
		t.Errorf("add operands = %+v", info)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache("t", 1024, 2, 32) // 16 sets
	if r := c.Access(0, false); r.Hit {
		t.Error("cold access should miss")
	}
	if r := c.Access(4, false); !r.Hit {
		t.Error("same-line access should hit")
	}
	if r := c.Access(1024, false); r.Hit {
		t.Error("different line should miss")
	}
	// Same set (addresses 0, 1024 with 16 sets * 32B line -> stride 512):
	// fill both ways then evict.
	c2 := NewCache("t2", 1024, 2, 32)
	c2.Access(0, true)    // way 0, dirty
	c2.Access(512, false) // way 1 (same set 0)
	res := c2.Access(1024, false)
	if res.Hit {
		t.Error("third distinct line in 2-way set should miss")
	}
	if !res.Writeback || res.WritebackAddr != 0 {
		t.Errorf("expected dirty writeback of line 0, got %+v", res)
	}
}

func TestCacheLRU(t *testing.T) {
	c := NewCache("lru", 64, 2, 32) // 1 set, 2 ways
	c.Access(0, false)
	c.Access(32, false)
	c.Access(0, false)  // touch line 0 -> line 32 is LRU
	c.Access(64, false) // evicts 32
	if r := c.Access(0, false); !r.Hit {
		t.Error("LRU should have kept line 0")
	}
	if r := c.Access(32, false); r.Hit {
		t.Error("line 32 should have been evicted")
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache("mr", 1024, 2, 32)
	for i := 0; i < 10; i++ {
		c.Access(uint32(i)*4096, false) // all distinct lines
	}
	if c.MissRate() != 1.0 {
		t.Errorf("miss rate = %v", c.MissRate())
	}
}

func TestBimodalPredictorLearns(t *testing.T) {
	p := NewBimodalPredictor(16)
	// Always-taken branch: after warm-up the predictor must be right.
	for i := 0; i < 10; i++ {
		p.PredictAndUpdate(5, true)
	}
	if got := p.PredictAndUpdate(5, true); !got {
		t.Error("predictor failed to learn an always-taken branch")
	}
	// Alternating branch at another index: accuracy should be poor but
	// tracked.
	for i := 0; i < 100; i++ {
		p.PredictAndUpdate(7, i%2 == 0)
	}
	if p.Accuracy() <= 0 || p.Accuracy() >= 1 {
		t.Logf("accuracy = %v", p.Accuracy()) // sanity only
	}
}

func TestSimulatorRunsAndProducesTraces(t *testing.T) {
	src := `
		.data
		arr: .space 4096
		.text
		la  r1, arr
		li  r2, 1024     # words
		li  r3, 0
	fill:
		sw  r3, 0(r1)
		addi r1, r1, 4
		addi r3, r3, 7
		addi r2, r2, -1
		bnez r2, fill
		la  r1, arr
		li  r2, 1024
		li  r4, 0
	sum:
		lw  r5, 0(r1)
		add r4, r4, r5
		addi r1, r1, 4
		addi r2, r2, -1
		bnez r2, sum
		halt
	`
	p := MustAssemble(src)
	sim, err := NewSimulator(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := sim.Run(100000, 0)
	if tr.Instructions < 8000 {
		t.Fatalf("expected ~10k instructions, got %d", tr.Instructions)
	}
	if tr.Cycles == 0 || tr.IPC <= 0 || tr.IPC > float64(DefaultConfig().IssueWidth) {
		t.Errorf("implausible timing: cycles=%d IPC=%v", tr.Cycles, tr.IPC)
	}
	if len(tr.RegisterBus) == 0 {
		t.Error("no register bus traffic captured")
	}
	if len(tr.MemoryBus) == 0 {
		t.Error("no memory bus traffic captured")
	}
	// The fill loop stores multiples of 7: those values must appear on the
	// memory bus.
	seen := map[uint32]bool{}
	for _, v := range tr.MemoryBus {
		seen[v] = true
	}
	if !seen[7] || !seen[14] {
		t.Error("store data missing from memory bus trace")
	}
	if tr.L1DMissRate <= 0 {
		t.Error("sequential walk over 4KB should produce L1 misses")
	}
	if tr.BranchAccuracy < 0.9 {
		t.Errorf("loop branch accuracy %v suspiciously low", tr.BranchAccuracy)
	}
}

func TestSimulatorDeterministic(t *testing.T) {
	src := `
		li r1, 200
	loop:
		mul r2, r1, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`
	run := func() BusTraces {
		sim, err := NewSimulator(MustAssemble(src), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(10000, 0)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Error("simulator is not deterministic")
	}
	if len(a.RegisterBus) != len(b.RegisterBus) {
		t.Fatal("register traces differ in length")
	}
	for i := range a.RegisterBus {
		if a.RegisterBus[i] != b.RegisterBus[i] {
			t.Fatalf("register traces diverge at %d", i)
		}
	}
}

func TestSimulatorMaxBusValues(t *testing.T) {
	src := `
		li r1, 10000
	loop:
		add r2, r2, r1
		addi r1, r1, -1
		bnez r1, loop
		halt
	`
	sim, _ := NewSimulator(MustAssemble(src), DefaultConfig())
	tr := sim.Run(1<<40, 500)
	if len(tr.RegisterBus) > 500 {
		t.Errorf("register trace exceeded cap: %d", len(tr.RegisterBus))
	}
}

func TestDependencyStallsShowInTiming(t *testing.T) {
	// A chain of dependent multiplies must take more cycles than
	// independent ones.
	dep := `
		li r1, 3
		mul r1, r1, r1
		mul r1, r1, r1
		mul r1, r1, r1
		mul r1, r1, r1
		halt
	`
	indep := `
		li r1, 3
		mul r2, r1, r1
		mul r3, r1, r1
		mul r4, r1, r1
		mul r5, r1, r1
		halt
	`
	run := func(src string) uint64 {
		sim, err := NewSimulator(MustAssemble(src), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(100, 0).Cycles
	}
	// Note: with one multiplier, independent muls still serialize on the
	// FU, but the dependent chain additionally serializes on data.
	if run(dep) <= run(indep) {
		t.Error("dependent chain should be slower than independent ops")
	}
}

func TestMemoryImageTooLarge(t *testing.T) {
	m := NewMemory(64)
	if err := m.LoadImage(60, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Error("oversized image should fail")
	}
}

func TestMemoryBounds(t *testing.T) {
	m := NewMemory(64)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access should panic")
		}
	}()
	m.Read32(62)
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Instr{Op: OpAddi, Rd: 1, Rs1: 0, Imm: -4}, "addi r1, r0, -4"},
		{Instr{Op: OpLw, Rd: 5, Rs1: 2, Imm: 8}, "lw r5, 8(r2)"},
		{Instr{Op: OpSw, Rs2: 5, Rs1: 2, Imm: 8}, "sw r5, 8(r2)"},
		{Instr{Op: OpFadd, Rd: 1, Rs1: 2, Rs2: 3}, "fadd f1, f2, f3"},
		{Instr{Op: OpHalt}, "halt"},
		{Instr{Op: OpBeq, Rs1: 1, Rs2: 2, Imm: 10}, "beq r1, r2, 10"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAssembleCommentsAndLabels(t *testing.T) {
	p, err := Assemble(`
		# full-line comment
		.text
	a: b:  nop        ; two labels, trailing comment
		j a
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["a"] != 0 || p.Labels["b"] != 0 {
		t.Errorf("labels = %v", p.Labels)
	}
	if !strings.Contains(p.Instrs[1].String(), "jal") {
		t.Errorf("j should expand to jal, got %v", p.Instrs[1])
	}
}
