package core

import (
	"fmt"
	"strconv"

	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
)

// commit retires up to CommitWidth finalized instructions in order,
// updating architectural state, training the predictors, collecting the
// per-instruction statistics, and cross-checking every retired instruction
// against the functional oracle.
func (m *Machine) commit() error {
	width := m.cfg.CommitWidth
	for n := 0; n < width && m.robCount > 0 && !m.halted; n++ {
		idx := m.robHead
		e := &m.rob[idx]
		if !e.final || (e.isCtl && !e.finalResolved) {
			return nil
		}
		if e.isStore {
			// The store's memory write needs a cache port.
			if m.dcPortsUsed >= m.cfg.MemPorts {
				return nil
			}
			m.dcPortsUsed++
			m.dcache.Access(e.addr)
			emu.StoreValue(m.mem, e.in.Op, e.addr, e.srcVal[1])
			m.tech.onStoreCommit(m, e)
		}

		if err := m.checkOracle(e); err != nil {
			return err
		}

		// Architectural register state.
		if d := e.in.Dest; d != isa.NoReg {
			m.regs[d] = e.result
			if m.createVec[d] == idx && m.createSeq[d] == e.seq {
				m.createVec[d] = -1
			}
		}

		m.traceEvent(e, func(ev *PipeEvent) { ev.Commit = m.cycle })
		m.commitStats(e)
		m.trainPredictors(e)
		if m.debugCommit != nil {
			m.debugCommit(e)
		}

		if e.in.Op == isa.OpSYSCALL {
			m.doSyscall()
		}
		if e.in.Op == isa.OpBREAK {
			m.halted = true
		}
		if m.serialize == idx {
			m.serialize = -1
		}

		// Pop the ROB (and the LSQ for memory ops).
		if e.lsq >= 0 {
			m.lsq[e.lsq].valid = false
			if e.lsq == m.lsqHead {
				m.popLSQ()
			}
		}
		e.valid = false
		m.robHead = m.robIdx(1)
		m.robCount--

		m.commitCursor++
		m.oracle.release()
		m.stats.Committed++
		m.lastRetire = m.cycle
		m.itersAtRetire = m.activeIters
		if _, ok := m.oracle.at(m.commitCursor); !ok {
			if err := m.oracle.err; err != nil {
				return fmt.Errorf("core: functional execution faulted after %d instructions: %w", m.commitCursor, err)
			}
			m.halted = true
		}
	}
	return nil
}

// popLSQ advances the LSQ head past freed slots.
func (m *Machine) popLSQ() {
	for m.lsqCount > 0 && !m.lsq[m.lsqHead].valid {
		m.lsqHead = wrap(m.lsqHead+1, int32(m.cfg.LSQSize))
		m.lsqCount--
	}
}

// checkOracle compares a retiring instruction against the functional trace.
// Any mismatch is a simulator bug, never a modeling choice.
func (m *Machine) checkOracle(e *robEntry) error {
	if e.traceIdx != m.commitCursor {
		return m.divergence(e, "commit order", e.traceIdx, m.commitCursor)
	}
	o, ok := m.oracle.at(e.traceIdx)
	if !ok {
		return m.divergence(e, "commit order", e.traceIdx, "end of the correct path")
	}
	if e.pc != o.pc {
		return m.divergence(e, "pc", e.pc, o.pc)
	}
	if e.in.Dest != isa.NoReg && e.result != o.result {
		return m.divergence(e, "result", e.result, o.result)
	}
	if e.in.Op.IsMem() && e.addr != o.addr {
		return m.divergence(e, "address", e.addr, o.addr)
	}
	if e.in.Op.IsCondBranch() && e.actualTaken != o.taken {
		return m.divergence(e, "direction", e.actualTaken, o.taken)
	}
	return nil
}

// commitStats gathers the per-instruction counters behind the paper's
// tables.
func (m *Machine) commitStats(e *robEntry) {
	op := e.in.Op

	// Table 6: executions per instruction.
	bucket := e.execCount
	if bucket < 1 {
		bucket = 1
	}
	if bucket > 4 {
		bucket = 4
	}
	m.stats.ExecTimes[bucket-1]++

	if op.IsCondBranch() {
		m.stats.CondBranches++
		if e.predTaken != e.actualTaken {
			m.stats.CondMispredict++
		}
	}
	if op == isa.OpJR && e.in.Src1 == isa.RegRA {
		m.stats.Returns++
		if e.predNextPC == e.actualNext {
			m.stats.ReturnsCorrect++
		}
	}
	if op.IsCondBranch() || op.IsIndirect() {
		lat := e.resolveCycle - e.decodeCycle
		m.stats.BrResolveLatSum += lat
		m.stats.BrResolveLatN++
		if m.obs != nil {
			m.obs.hBrLat.Observe(float64(lat))
		}
	}
	if op.IsMem() {
		m.stats.MemOps++
		if e.addrReused {
			m.stats.ReusedAddrs++
		}
		if e.addrPred {
			m.stats.VPAddrPredicted++
			if e.predAddrVal == e.addr {
				m.stats.VPAddrCorrect++
			}
		}
	}
	if e.reused || e.lateHit {
		m.stats.ReusedResults++
	}
	if e.predicted && !e.lateHit {
		m.stats.VPResultPredicted++
		if e.predVal == e.result {
			m.stats.VPResultCorrect++
		}
	}
}

// trainPredictors updates the branch predictor and BTB with non-speculative
// outcomes, then hands the entry to the active technique to train its own
// tables (VPT/VPA for the value-predicting techniques).
func (m *Machine) trainPredictors(e *robEntry) {
	op := e.in.Op
	if op.IsCondBranch() {
		hist := e.histAtPred
		m.bp.UpdateDir(e.pc, hist, e.actualTaken)
	}
	if op.IsIndirect() {
		m.bp.UpdateBTB(e.pc, e.actualNext)
	}
	m.tech.atCommit(m, e)
}

// doSyscall applies a system call against committed state; mirrors the
// functional emulator's implementation exactly.
func (m *Machine) doSyscall() {
	code := uint32(m.regs[isa.RegV0])
	a0 := m.regs[isa.RegA0]
	switch code {
	case emu.SysPrintInt:
		m.output.WriteString(strconv.FormatInt(int64(int32(uint32(a0))), 10))
	case emu.SysPrintStr:
		addr := uint32(a0)
		for i := 0; i < 1<<16; i++ {
			b := m.mem.LoadByte(addr)
			if b == 0 {
				break
			}
			m.output.WriteByte(b)
			addr++
		}
	case emu.SysExit:
		m.exitCode = int(int32(uint32(a0)))
		m.halted = true
	case emu.SysPutChar:
		m.output.WriteByte(byte(a0))
	}
}
