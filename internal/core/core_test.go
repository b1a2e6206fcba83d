package core

import (
	"fmt"
	"testing"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/vp"
)

// Test programs covering the interesting microarchitectural behaviours.
var testPrograms = map[string]string{
	"sum": `
        .text
main:   li   $t0, 0
        li   $t1, 1
loop:   addu $t0, $t0, $t1
        addiu $t1, $t1, 1
        slti $at, $t1, 1001
        bnez $at, loop
        move $a0, $t0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"memory": `
        .data
arr:    .space 400
        .text
main:   la   $s0, arr
        li   $t1, 0
fill:   sll  $t2, $t1, 2
        addu $t2, $t2, $s0
        sw   $t1, 0($t2)
        addiu $t1, $t1, 1
        slti $at, $t1, 100
        bnez $at, fill
        li   $t0, 0
        li   $t1, 0
sum:    sll  $t2, $t1, 2
        addu $t2, $t2, $s0
        lw   $t3, 0($t2)
        addu $t0, $t0, $t3
        addiu $t1, $t1, 1
        slti $at, $t1, 100
        bnez $at, sum
        move $a0, $t0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"calls": `
        .text
main:   li   $s0, 0
        li   $s1, 1
loop:   move $a0, $s1
        jal  square
        addu $s0, $s0, $v0
        addiu $s1, $s1, 1
        slti $at, $s1, 20
        bnez $at, loop
        move $a0, $s0
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
square: mul  $v0, $a0, $a0
        jr   $ra
`,
	"redundant": `
        # Heavy value redundancy: the same computation on the same data,
        # repeated — the best case for both VP and IR. The inner loop spans
        # 4 iterations so each static instruction has at most 4 distinct
        # operand instances, matching the 4-way VPT/RB instance limit.
        .data
xs:     .word 3, 7, 3, 7
        .text
main:   li   $s0, 0          # outer counter
        li   $s2, 0          # accumulator
outer:  la   $s1, xs
        li   $t0, 0
inner:  sll  $t1, $t0, 2
        addu $t1, $t1, $s1
        lw   $t2, 0($t1)
        mul  $t3, $t2, $t2
        addu $t3, $t3, $t2
        sra  $t4, $t3, 1
        addu $s2, $s2, $t4
        addiu $t0, $t0, 1
        slti $at, $t0, 4
        bnez $at, inner
        addiu $s0, $s0, 1
        slti $at, $s0, 60
        bnez $at, outer
        move $a0, $s2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"branchy": `
        # Data-dependent branches fed by loads: exercises squashes and the
        # wrong-path machinery.
        .data
bits:   .word 1,0,1,1,0,1,0,0,1,1,1,0,1,0,0,1,0,1,1,0,1,1,0,1,0,0,1,0,1,1,0,0
        .text
main:   li   $s0, 0          # index
        li   $s2, 0          # count of ones
        li   $s3, 0          # alt accumulator
outer:  andi $t0, $s0, 31
        sll  $t0, $t0, 2
        la   $t1, bits
        addu $t1, $t1, $t0
        lw   $t2, 0($t1)
        beqz $t2, iszero
        addiu $s2, $s2, 1
        b    next
iszero: addiu $s3, $s3, 2
next:   addiu $s0, $s0, 1
        slti $at, $s0, 200
        bnez $at, outer
        addu $a0, $s2, $s3
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"storeload": `
        # Store-to-load forwarding and reuse invalidation by stores.
        .data
cell:   .word 0
        .text
main:   la   $s0, cell
        li   $t0, 0
        li   $s1, 0
loop:   sw   $t0, 0($s0)
        lw   $t1, 0($s0)
        addu $s1, $s1, $t1
        addiu $t0, $t0, 1
        slti $at, $t0, 50
        bnez $at, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"latency": `
        # Long-latency operations: divides and FP feed dependent chains.
        .data
fone:   .word 0x3f800000
        .text
main:   li   $s0, 1000000
        li   $s1, 7
        li   $s2, 0
        li   $t4, 4
loop:   div  $t0, $s0, $s1    # quotient
        rem  $t1, $s0, $s1
        addu $s2, $s2, $t1
        addiu $s0, $s0, -13333
        bgtz $s0, loop
        l.s  $f0, fone
        add.s $f1, $f0, $f0
        mul.s $f2, $f1, $f1
        sqrt.s $f3, $f2
        cvt.w.s $f4, $f3
        mfc1 $t2, $f4
        addu $a0, $s2, $t2
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
	"pointer": `
        # Pointer chasing through a linked list built in memory.
        .data
nodes:  .space 800            # 100 nodes x (value, next)
        .text
main:   la   $s0, nodes
        li   $t0, 0            # build list
build:  sll  $t1, $t0, 3
        addu $t1, $t1, $s0     # node addr
        sw   $t0, 0($t1)       # value = i
        addiu $t2, $t1, 8      # next = node i+1
        sw   $t2, 4($t1)
        addiu $t0, $t0, 1
        slti $at, $t0, 100
        bnez $at, build
        sll  $t1, $t0, 3
        addu $t1, $t1, $s0
        addiu $t1, $t1, -8
        sw   $zero, 4($t1)     # last->next = null
        # walk the list 5 times
        li   $s3, 0
        li   $s4, 5
walk:   move $t3, $s0
        li   $t4, 0
next:   lw   $t5, 0($t3)
        addu $t4, $t4, $t5
        lw   $t3, 4($t3)
        bnez $t3, next
        addu $s3, $s3, $t4
        addiu $s4, $s4, -1
        bgtz $s4, walk
        move $a0, $s3
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
`,
}

func assembleTest(t testing.TB, name string) *prog.Program {
	t.Helper()
	src, ok := testPrograms[name]
	if !ok {
		t.Fatalf("no test program %q", name)
	}
	p, err := asm.Assemble(name+".s", src)
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	return p
}

// emulate runs p to completion on the functional emulator: the
// architectural result every timing configuration must reproduce.
func emulate(t testing.TB, p *prog.Program) *emu.CPU {
	t.Helper()
	cpu := emu.New(p)
	if _, err := cpu.Run(0); err != nil {
		t.Fatal(err)
	}
	return cpu
}

// allConfigs enumerates every configuration the paper studies.
func allConfigs() map[string]Config {
	cfgs := map[string]Config{
		"base":    DefaultConfig(),
		"ir":      IRChoice(false),
		"ir-late": IRChoice(true),
	}
	for _, scheme := range []vp.Scheme{vp.Magic, vp.LVP} {
		for _, res := range []BranchResolution{SB, NSB} {
			for _, re := range []ReexecPolicy{ME, NME} {
				for _, vl := range []int{0, 1} {
					c := VPChoice(scheme, res, re, vl)
					cfgs[fmt.Sprintf("%v-%v-%v-%d", scheme, re, res, vl)] = c
				}
			}
		}
	}
	return cfgs
}

// TestAllConfigsMatchOracle is the master correctness test: every machine
// configuration must commit exactly the functional trace — same PCs, same
// results, same memory addresses, same branch directions, same output.
func TestAllConfigsMatchOracle(t *testing.T) {
	for progName := range testPrograms {
		p := assembleTest(t, progName)
		ref := emulate(t, p)
		for cfgName, cfg := range allConfigs() {
			t.Run(progName+"/"+cfgName, func(t *testing.T) {
				m, err := New(p, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(5_000_000); err != nil {
					t.Fatal(err)
				}
				if !m.Halted() {
					t.Fatal("machine did not halt (deadlock?)")
				}
				if got, want := m.Output(), ref.Output.String(); got != want {
					t.Errorf("output = %q, want %q", got, want)
				}
				if got, want := m.ExitCode(), ref.ExitCode; got != want {
					t.Errorf("exit = %d, want %d", got, want)
				}
				s := m.Stats()
				if s.Committed != ref.InstCount {
					t.Errorf("committed %d, oracle %d", s.Committed, ref.InstCount)
				}
			})
		}
	}
}

func runProg(t testing.TB, progName string, cfg Config) *Machine {
	t.Helper()
	p := assembleTest(t, progName)
	m, err := New(p, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(5_000_000); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	return m
}

// TestIRFasterThanBaseOnRedundantCode: the headline effect — IR collapses
// dependence chains on redundant code.
func TestIRSpeedsUpRedundantCode(t *testing.T) {
	base := runProg(t, "redundant", DefaultConfig())
	ir := runProg(t, "redundant", IRChoice(false))
	bIPC, iIPC := base.Stats().IPC(), ir.Stats().IPC()
	if iIPC <= bIPC {
		t.Errorf("IR IPC %.3f not faster than base %.3f", iIPC, bIPC)
	}
	if ir.Stats().ReuseResultRate() < 20 {
		t.Errorf("reuse rate %.1f%% too low for redundant loop", ir.Stats().ReuseResultRate())
	}
}

// TestVPSpeedsUpRedundantCode: same for VP_Magic.
func TestVPSpeedsUpRedundantCode(t *testing.T) {
	base := runProg(t, "redundant", DefaultConfig())
	vpm := runProg(t, "redundant", VPChoice(vp.Magic, SB, ME, 0))
	bIPC, vIPC := base.Stats().IPC(), vpm.Stats().IPC()
	if vIPC <= bIPC {
		t.Errorf("VP IPC %.3f not faster than base %.3f", vIPC, bIPC)
	}
	pred, _ := vpm.Stats().VPResultRates()
	if pred < 20 {
		t.Errorf("prediction rate %.1f%% too low", pred)
	}
}

// TestEarlyValidationBeatsLate reproduces the Figure 3 direction: early
// validation must outperform late validation.
func TestEarlyValidationBeatsLate(t *testing.T) {
	early := runProg(t, "redundant", IRChoice(false))
	late := runProg(t, "redundant", IRChoice(true))
	if early.Stats().IPC() < late.Stats().IPC() {
		t.Errorf("early IPC %.3f < late IPC %.3f", early.Stats().IPC(), late.Stats().IPC())
	}
}

// TestVerifyLatencyCosts: 1-cycle verification must not be faster than
// 0-cycle for the same configuration.
func TestVerifyLatencyCosts(t *testing.T) {
	v0 := runProg(t, "redundant", VPChoice(vp.Magic, NSB, ME, 0))
	v1 := runProg(t, "redundant", VPChoice(vp.Magic, NSB, ME, 1))
	if v1.Stats().IPC() > v0.Stats().IPC()+1e-9 {
		t.Errorf("vlat=1 IPC %.4f beats vlat=0 IPC %.4f", v1.Stats().IPC(), v0.Stats().IPC())
	}
}

// TestBranchStatsSane: gshare must learn the loop branches.
func TestBranchStatsSane(t *testing.T) {
	m := runProg(t, "sum", DefaultConfig())
	s := m.Stats()
	if s.CondBranches < 900 {
		t.Fatalf("cond branches = %d", s.CondBranches)
	}
	if s.BranchPredRate() < 90 {
		t.Errorf("branch prediction rate %.1f%% too low for a simple loop", s.BranchPredRate())
	}
}

// TestReturnPrediction: the RAS should predict returns essentially always.
func TestReturnPrediction(t *testing.T) {
	m := runProg(t, "calls", DefaultConfig())
	s := m.Stats()
	if s.Returns < 19 {
		t.Fatalf("returns = %d", s.Returns)
	}
	if s.ReturnPredRate() < 99 {
		t.Errorf("return prediction rate %.1f%%", s.ReturnPredRate())
	}
}

// TestIRResolvesBranchesEarly: reused branches resolve at decode, so the
// mean branch resolution latency under IR must be below base.
func TestIRResolvesBranchesEarly(t *testing.T) {
	base := runProg(t, "branchy", DefaultConfig())
	ir := runProg(t, "branchy", IRChoice(false))
	if ir.Stats().MeanBrResolveLat() >= base.Stats().MeanBrResolveLat() {
		t.Errorf("IR resolve latency %.2f not below base %.2f",
			ir.Stats().MeanBrResolveLat(), base.Stats().MeanBrResolveLat())
	}
}

// TestIRReducesExecutions: reused instructions skip the execute stage.
func TestIRReducesExecutions(t *testing.T) {
	base := runProg(t, "redundant", DefaultConfig())
	ir := runProg(t, "redundant", IRChoice(false))
	if ir.Stats().Executed >= base.Stats().Executed {
		t.Errorf("IR executions %d not below base %d", ir.Stats().Executed, base.Stats().Executed)
	}
}

// TestNMELimitsExecCounts: under NME no instruction executes more than twice.
func TestNMELimitsExecCounts(t *testing.T) {
	m := runProg(t, "branchy", VPChoice(vp.LVP, SB, NME, 1))
	s := m.Stats()
	if s.ExecTimes[2] != 0 || s.ExecTimes[3] != 0 {
		t.Errorf("NME allowed 3+ executions: %v", s.ExecTimes)
	}
}

// TestStoreLoadForwarding: the storeload program round-trips values through
// memory every iteration; it must still match the oracle and make progress.
func TestStoreLoadForwarding(t *testing.T) {
	m := runProg(t, "storeload", DefaultConfig())
	if m.Output() != "1225" {
		t.Errorf("output = %q, want 1225", m.Output())
	}
}

// TestDeterminism: two runs of the same configuration are cycle-identical.
func TestDeterminism(t *testing.T) {
	a := runProg(t, "branchy", IRChoice(false))
	b := runProg(t, "branchy", IRChoice(false))
	if a.Stats().Cycles != b.Stats().Cycles {
		t.Errorf("cycles differ: %d vs %d", a.Stats().Cycles, b.Stats().Cycles)
	}
	c := runProg(t, "branchy", VPChoice(vp.Magic, SB, ME, 1))
	d := runProg(t, "branchy", VPChoice(vp.Magic, SB, ME, 1))
	if c.Stats().Cycles != d.Stats().Cycles {
		t.Errorf("vp cycles differ: %d vs %d", c.Stats().Cycles, d.Stats().Cycles)
	}
}

// TestConfigValidate exercises the validation errors.
func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	c.ROBSize = 33
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two ROB accepted")
	}
	c = DefaultConfig()
	c.FetchWidth = 0
	if err := c.Validate(); err == nil {
		t.Error("zero fetch width accepted")
	}
}

// TestConfigNames pins the labels used in harness tables.
func TestConfigNames(t *testing.T) {
	if got := IRChoice(false).Name(); got != "IR" {
		t.Errorf("name = %q", got)
	}
	if got := IRChoice(true).Name(); got != "IR late" {
		t.Errorf("name = %q", got)
	}
	c := VPChoice(vp.Magic, NSB, NME, 1)
	if got := c.Name(); got != "VP_Magic NME-NSB vlat=1" {
		t.Errorf("name = %q", got)
	}
}

// TestHybridMatchesOracle: the hybrid (IR + VP) machine must also commit
// the exact functional stream on every test program.
func TestHybridMatchesOracle(t *testing.T) {
	for progName := range testPrograms {
		p := assembleTest(t, progName)
		ref := emulate(t, p)
		for _, cfg := range []Config{
			HybridChoice(vp.Magic, SB, ME, 0),
			HybridChoice(vp.Magic, NSB, NME, 1),
			HybridChoice(vp.LVP, SB, ME, 1),
			HybridChoice(vp.Stride, SB, ME, 0),
		} {
			t.Run(progName+"/"+cfg.Name(), func(t *testing.T) {
				m, err := New(p, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Run(5_000_000); err != nil {
					t.Fatal(err)
				}
				if !m.Halted() {
					t.Fatal("machine did not halt")
				}
				if got, want := m.Output(), ref.Output.String(); got != want {
					t.Errorf("output = %q, want %q", got, want)
				}
			})
		}
	}
}

// TestHybridCombinesBothMechanisms: on redundant code the hybrid machine
// both reuses and predicts, and is at least as fast as base.
func TestHybridCombinesBothMechanisms(t *testing.T) {
	base := runProg(t, "redundant", DefaultConfig())
	hy := runProg(t, "redundant", HybridChoice(vp.Magic, SB, ME, 0))
	s := hy.Stats()
	if s.ReusedResults == 0 {
		t.Error("hybrid never reused")
	}
	if s.VPResultPredicted == 0 {
		t.Error("hybrid never predicted")
	}
	if hy.Stats().IPC() < base.Stats().IPC() {
		t.Errorf("hybrid IPC %.3f below base %.3f", hy.Stats().IPC(), base.Stats().IPC())
	}
}

// TestStrideSchemeRuns: the stride predictor must run the latency program
// (stride-heavy loop counters) correctly and make predictions.
func TestStrideSchemeRuns(t *testing.T) {
	m := runProg(t, "latency", VPChoice(vp.Stride, SB, ME, 0))
	s := m.Stats()
	if s.VPResultPredicted == 0 {
		t.Error("stride predictor made no predictions")
	}
	if s.VPResultCorrect == 0 {
		t.Error("stride predictor was never right")
	}
}
