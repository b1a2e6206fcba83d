package emu

import (
	"bytes"
	"fmt"
	"strconv"

	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/prog"
)

// Syscall codes (passed in $v0).
const (
	SysPrintInt = 1  // prints $a0 as signed decimal
	SysPrintStr = 4  // prints the NUL-terminated string at $a0
	SysExit     = 10 // terminates with exit code $a0
	SysPutChar  = 11 // prints the byte in $a0
)

// Trace describes one retired instruction; the redundancy limit study and
// golden tests consume these. The struct is reused between calls — handlers
// must copy anything they keep.
type Trace struct {
	Seq     uint64 // dynamic instruction number, starting at 0
	PC      uint32
	Inst    *isa.Inst
	Src1OK  bool // Src1 present
	Src2OK  bool
	Src1Val isa.Word
	Src2Val isa.Word
	DestVal isa.Word // valid when Inst.Dest != NoReg
	Addr    uint32   // effective address for memory ops
	Taken   bool     // branch direction for control ops
}

// CPU is the functional emulator. Create with New, drive with Step or Run.
type CPU struct {
	Regs [isa.NumArchRegs]isa.Word
	PC   uint32
	Mem  *mem.Memory

	Halted   bool
	ExitCode int
	Output   bytes.Buffer

	// InstCount is the number of instructions retired so far.
	InstCount uint64

	// TraceFn, when set, is called once per retired instruction.
	TraceFn func(*Trace)

	prog    *prog.Program
	decoded []isa.Inst
	trace   Trace
}

// New builds a CPU with the program loaded, PC at the entry point, and the
// stack pointer initialised below prog.StackTop.
func New(p *prog.Program) *CPU {
	c := &CPU{
		Mem:     mem.NewMemory(),
		PC:      p.Entry,
		prog:    p,
		decoded: p.Decoded(),
	}
	c.Mem.LoadProgram(p)
	c.Regs[isa.RegSP] = isa.Word(prog.StackTop)
	return c
}

// Reset rewinds the CPU to the state New produced for its program, reusing
// the memory pages the previous run faulted in.
func (c *CPU) Reset() {
	c.Mem.Reset()
	c.Mem.LoadProgram(c.prog)
	c.Regs = [isa.NumArchRegs]isa.Word{}
	c.Regs[isa.RegSP] = isa.Word(prog.StackTop)
	c.PC = c.prog.Entry
	c.Halted = false
	c.ExitCode = 0
	c.Output.Reset()
	c.InstCount = 0
}

// Program returns the loaded program.
func (c *CPU) Program() *prog.Program { return c.prog }

// Last describes the most recently retired instruction. It is overwritten
// by the next Step, so callers copy what they keep, as with TraceFn.
func (c *CPU) Last() *Trace { return &c.trace }

// InstAt returns the decoded instruction at pc, or nil if pc is outside the
// text segment.
func (c *CPU) InstAt(pc uint32) *isa.Inst {
	if !c.prog.InText(pc) || pc&3 != 0 {
		return nil
	}
	return &c.decoded[(pc-prog.TextBase)/4]
}

// Fault describes an execution fault (bad PC, invalid opcode, bad syscall).
type Fault struct {
	PC   uint32
	Line int
	Msg  string
}

func (f *Fault) Error() string {
	if f.Line > 0 {
		return fmt.Sprintf("emu: fault at pc %#x (line %d): %s", f.PC, f.Line, f.Msg)
	}
	return fmt.Sprintf("emu: fault at pc %#x: %s", f.PC, f.Msg)
}

func (c *CPU) fault(msg string) error {
	return &Fault{PC: c.PC, Line: c.prog.SrcLines[c.PC], Msg: msg}
}

// Step executes one instruction. It is a no-op once the CPU has halted.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	in := c.InstAt(c.PC)
	if in == nil {
		return c.fault("pc outside text segment")
	}
	if in.Op == isa.OpInvalid {
		return c.fault(fmt.Sprintf("invalid instruction %#08x", in.Raw))
	}

	var s1, s2 isa.Word
	if in.Src1 != isa.NoReg {
		s1 = c.Regs[in.Src1]
	}
	if in.Src2 != isa.NoReg {
		s2 = c.Regs[in.Src2]
	}

	t := &c.trace
	t.Seq = c.InstCount
	t.PC = c.PC
	t.Inst = in
	t.Src1OK = in.Src1 != isa.NoReg
	t.Src2OK = in.Src2 != isa.NoReg
	t.Src1Val, t.Src2Val = s1, s2
	t.Addr, t.Taken = 0, false
	t.DestVal = 0

	nextPC := c.PC + 4
	op := in.Op
	info := op.Info()

	switch {
	case op == isa.OpSYSCALL:
		if err := c.syscall(); err != nil {
			return err
		}
	case op == isa.OpBREAK:
		c.Halted = true
	case info.Flg&isa.FlagLoad != 0:
		addr := EffAddr(in, s1)
		v := LoadValue(c.Mem, op, addr)
		c.writeReg(in.Dest, v)
		t.Addr, t.DestVal = addr, v
	case info.Flg&isa.FlagStore != 0:
		addr := EffAddr(in, s1)
		StoreValue(c.Mem, op, addr, s2)
		t.Addr = addr
	case info.Flg&isa.FlagCondBr != 0:
		taken := BranchTaken(op, s1, s2)
		if taken {
			nextPC = in.BranchTarget(c.PC)
		}
		t.Taken = taken
	case info.Flg&isa.FlagUncond != 0:
		t.Taken = true
		switch op {
		case isa.OpJ:
			nextPC = in.JumpTarget()
		case isa.OpJAL:
			link := ALUResult(in, s1, s2, c.PC)
			c.writeReg(in.Dest, link)
			t.DestVal = link
			nextPC = in.JumpTarget()
		case isa.OpJR:
			nextPC = uint32(s1)
		case isa.OpJALR:
			link := ALUResult(in, s1, s2, c.PC)
			c.writeReg(in.Dest, link)
			t.DestVal = link
			nextPC = uint32(s1)
		}
	default:
		v := ALUResult(in, s1, s2, c.PC)
		c.writeReg(in.Dest, v)
		t.DestVal = v
	}

	c.PC = nextPC
	c.InstCount++
	if c.TraceFn != nil {
		c.TraceFn(t)
	}
	return nil
}

func (c *CPU) writeReg(r isa.Reg, v isa.Word) {
	if r != isa.NoReg {
		c.Regs[r] = v
	}
}

func (c *CPU) syscall() error {
	code := uint32(c.Regs[isa.RegV0])
	a0 := c.Regs[isa.RegA0]
	switch code {
	case SysPrintInt:
		c.Output.WriteString(strconv.FormatInt(int64(int32(uint32(a0))), 10))
	case SysPrintStr:
		addr := uint32(a0)
		for i := 0; i < 1<<16; i++ {
			b := c.Mem.LoadByte(addr)
			if b == 0 {
				break
			}
			c.Output.WriteByte(b)
			addr++
		}
	case SysExit:
		c.ExitCode = int(int32(uint32(a0)))
		c.Halted = true
	case SysPutChar:
		c.Output.WriteByte(byte(a0))
	default:
		return c.fault(fmt.Sprintf("unknown syscall %d", code))
	}
	return nil
}

// Run executes until the program halts, a fault occurs, or maxInsts further
// instructions have retired (0 means no limit). It reports whether the
// program halted.
func (c *CPU) Run(maxInsts uint64) (bool, error) {
	limit := c.InstCount + maxInsts
	for !c.Halted {
		if maxInsts > 0 && c.InstCount >= limit {
			return false, nil
		}
		if err := c.Step(); err != nil {
			return false, err
		}
	}
	return true, nil
}

// RegChecksum hashes the architectural register file (FNV-1a); golden tests
// use it to compare emulator and timing-core state.
func (c *CPU) RegChecksum() uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range c.Regs {
		h ^= uint64(v)
		h *= prime64
	}
	return h
}
