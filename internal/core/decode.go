package core

import (
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
)

// decode dispatches up to DecodeWidth instructions from the fetch buffer
// into the ROB: rename, checkpoint allocation, the IR reuse test (in
// parallel with decode, per Figure 1(b)) and the VPT lookup (Figure 1(a)).
func (m *Machine) decode() error {
	// Loop-invariant structure sizes, hoisted: the compiler must otherwise
	// reload them through m.cfg after every call in the body.
	width, robSize, lsqSize := m.cfg.DecodeWidth, int32(m.cfg.ROBSize), int32(m.cfg.LSQSize)
	for n := 0; n < width && m.fetchCount > 0; n++ {
		f := &m.fetchQ[m.fetchHead]
		in := f.in
		if m.robCount == robSize {
			return nil
		}
		if m.serialize >= 0 {
			return nil // draining for an in-flight syscall
		}
		if in.Op.Serializes() && m.robCount > 0 {
			return nil // a serializing op dispatches only into an empty ROB
		}
		if in.Op.IsMem() && m.lsqCount == lsqSize {
			return nil
		}
		if f.needCkpt && m.unresolved >= m.cfg.MaxBranches {
			return nil
		}
		// Pop the ring slot. Its contents stay readable through this
		// iteration: fetch (the only writer) runs after decode, and a squash
		// just resets the ring cursors.
		m.fetchHead = wrap(m.fetchHead+1, int32(len(m.fetchQ)))
		m.fetchCount--

		idx := m.robIdx(m.robCount)
		m.robCount++
		e := &m.rob[idx]
		// Reset the recycled entry in place, keeping the consumers backing
		// array so steady-state dispatch allocates nothing. Zeroing and then
		// assigning writes the (large) entry once; a composite literal would
		// build it in a temporary and copy it a second time.
		cons := e.consumers[:0]
		*e = robEntry{}
		e.consumers = cons
		e.valid = true
		e.seq = m.seq
		e.pc = f.pc
		e.in = in
		e.decodeCycle = m.cycle
		e.traceIdx = -1
		e.traceSlot = -1
		e.lsq = -1
		e.srcProd = [2]int32{-1, -1}
		e.srcFrom = [2]reuse.Link{reuse.NoLink, reuse.NoLink}
		e.rbLink = reuse.NoLink
		e.reuseSrc = reuse.NoLink
		e.needExec = true
		m.seq++

		// Correct-path trace tracking.
		if m.traceCursor >= 0 {
			if o, ok := m.oracle.at(m.traceCursor); ok && o.pc == f.pc {
				e.traceIdx = m.traceCursor
				m.traceCursor++
			}
		}
		if e.traceIdx < 0 {
			m.traceCursor = -2 // off the correct path until a squash repairs it
		}

		m.traceDispatch(e, f.fetchCycle)
		m.rename(idx, e)

		// Instruction-class specific setup.
		switch {
		case in.Op == isa.OpJ:
			e.needExec = false
		case in.Op == isa.OpJAL:
			e.needExec = false
			e.hasResult = true
			e.result = isa.Word(f.pc + 4)
		case in.Op == isa.OpJALR:
			// The link value is known at decode; execution resolves the target.
			e.hasResult = true
			e.result = isa.Word(f.pc + 4)
		case in.Op.Serializes():
			e.needExec = false
			m.serialize = idx
		case in.Op.IsMem():
			e.isLoad = in.Op.IsLoad()
			e.isStore = in.Op.IsStore()
			m.lsqAlloc(idx, e)
		}

		if in.Op.IsControl() {
			e.isCtl = true
			e.predTaken = f.predTaken
			e.predNextPC = f.predNext
			e.curPath = f.predNext
			e.histAtPred = f.histAtPred
			if in.Op == isa.OpJ || in.Op == isa.OpJAL {
				e.finalResolved = true // static target, cannot mispredict
				e.resolvedOnce = true
				e.resolveCycle = m.cycle
				e.actualTaken = true
				e.actualNext = in.JumpTarget()
			}
		}

		// Technique hooks, in parallel with decode (Figure 1). The active
		// technique decides what runs here — the reuse test, the VPT/VPA
		// lookups, and how the two arbitrate (see technique.go).
		m.tech.atDecode(m, idx, e)

		// Destination rename happens after the reuse test / prediction so
		// that an instruction never sources itself.
		if in.Dest != isa.NoReg {
			m.createVec[in.Dest] = idx
			m.createSeq[in.Dest] = e.seq
		}

		// Checkpoint (after the destination rename: restoring must preserve
		// the branch's own destination, e.g. JALR's link register).
		if f.needCkpt {
			cp := m.newCkpt()
			cp.createVec = m.createVec
			cp.createSeq = m.createSeq
			cp.histAtPred = f.histAtPred
			// Copy the predictor snapshot out of the fetch-ring slot: the
			// slot's RAS storage is recycled by the next fetch into it.
			cp.bp.Hist = f.bpState.Hist
			cp.bp.RASTop = f.bpState.RASTop
			cp.bp.RAS = append(cp.bp.RAS[:0], f.bpState.RAS...)
			e.checkpoint = cp
			m.unresolved++
		}

		// Anything that still needs an execution enters the issue queue now;
		// later wake events (broadcast/finalize) keep it current.
		m.enqueueIssue(idx, e)

		// Entries that are complete at decode finalize immediately; a reused
		// branch resolves here (zero resolution latency, §4.2.2) and may
		// squash, which empties the fetch queue.
		switch {
		case e.reused:
			m.traceEvent(e, func(ev *PipeEvent) { ev.Reused = true; ev.Done = m.cycle })
			if m.debugReuse != nil {
				m.debugReuse(e)
			}
			squashed := m.finalizeAtDecode(idx, e)
			if squashed {
				return nil
			}
		case !e.needExec && !e.executing:
			m.enqueueFinal(idx)
			m.drainFinalQ()
		}
	}
	return nil
}

// rename resolves both source operands against the create vector.
func (m *Machine) rename(idx int32, e *robEntry) {
	regs := e.srcRegs()
	for k := 0; k < 2; k++ {
		r := regs[k]
		if r == isa.NoReg {
			e.srcReady[k] = true
			e.srcFinal[k] = true
			continue
		}
		p := m.createVec[r]
		if p >= 0 && m.rob[p].valid && m.rob[p].seq == m.createSeq[r] {
			prod := &m.rob[p]
			e.srcProd[k] = p
			e.srcProdSeq[k] = prod.seq
			e.srcFrom[k] = prod.rbLink
			if prod.hasResult {
				e.srcReady[k] = true
				e.srcVal[k] = prod.result
				e.srcFinal[k] = prod.final
			}
			prod.consumers = append(prod.consumers, consRef{idx: idx, seq: e.seq, slot: uint8(k)})
		} else {
			e.srcReady[k] = true
			e.srcFinal[k] = true
			e.srcVal[k] = m.regs[r]
		}
	}
}

// tryReuse runs the reuse test (§4.1.2). Operands count as available only
// when their values are final — the reuse test is non-speculative.
func (m *Machine) tryReuse(idx int32, e *robEntry) {
	in := e.in
	if in.Op.Serializes() || in.Op == isa.OpJ || in.Op == isa.OpJAL || in.Op == isa.OpInvalid {
		return
	}
	var ops [2]reuse.Operand
	regs := e.srcRegs()
	for k := 0; k < 2; k++ {
		ops[k] = reuse.Operand{ReusedFrom: reuse.NoLink}
		if regs[k] == isa.NoReg {
			continue
		}
		ops[k].Ready = e.srcReady[k] && e.srcFinal[k]
		ops[k].Val = e.srcVal[k]
		if p := e.srcProd[k]; p >= 0 {
			prod := &m.rob[p]
			if prod.valid && prod.seq == e.srcProdSeq[k] && prod.reused {
				ops[k].ReusedFrom = prod.reuseSrc
			}
		}
	}
	res := m.rb.Test(e.pc, in, ops[0], ops[1])
	if res.Hit && e.isLoad && !m.loadReuseSafe(e, res.Addr) {
		// An older in-flight store may alias: reusing the value would be
		// speculative. Keep the address computation only.
		res.Hit = false
	}
	if res.WrongPathWork && (res.Hit || res.AddrHit) {
		m.stats.Recovered++ // aggregated again via rb stats; kept for clarity
	}

	if res.Hit {
		if m.obs != nil {
			m.obs.reuseHitEvent(m.cycle, e, uint64(res.Value), res.WrongPathWork)
		}
		if m.cfg.IR.LateValidation {
			// Figure 3 "late": behave like a correctly predicted value —
			// the result is available to dependents now, but the
			// instruction still executes and validates at execute.
			e.lateHit = true
			e.predicted = true
			e.predVal = res.Value
			e.hasResult = true
			e.result = res.Value
			return
		}
		e.reused = true
		e.needExec = false
		e.reuseSrc = res.Entry
		e.rbLink = res.Entry // consumers' dependence pointers name this entry
		e.hasResult = true
		e.result = res.Value
		if in.Op.IsMem() {
			e.addrKnown = true
			e.addr = res.Addr
			e.addrReused = true
			if e.lsq >= 0 {
				m.lsq[e.lsq].addrKnown = true
				m.lsq[e.lsq].addr = res.Addr
			}
		}
		if e.isCtl {
			e.actualTaken = res.Value != 0
			if in.Op.IsCondBranch() {
				if e.actualTaken {
					e.actualNext = in.BranchTarget(e.pc)
				} else {
					e.actualNext = e.pc + 4
				}
			} else { // indirect jump: the buffered result is the target
				e.actualNext = uint32(res.Value)
				e.actualTaken = true
				if in.Op == isa.OpJALR {
					e.result = isa.Word(e.pc + 4) // the register result is the link
				}
			}
		}
		return
	}
	if res.AddrHit && in.Op.IsMem() && !m.cfg.IR.LateValidation {
		if m.obs != nil {
			m.obs.reuseAddrHitEvent(m.cycle, e, res.Addr)
		}
		e.addrKnown = true
		e.addr = res.Addr
		e.addrReused = true
		if e.lsq >= 0 {
			m.lsq[e.lsq].addrKnown = true
			m.lsq[e.lsq].addr = res.Addr
		}
		if e.isStore {
			e.needExec = false // the agen is the only execution a store needs
		}
	}
}

// finalizeAtDecode completes a reused instruction at decode time. Returns
// true when a reused branch resolved to a different path and squashed (the
// fetch queue is then empty and decode must stop).
func (m *Machine) finalizeAtDecode(idx int32, e *robEntry) bool {
	m.fetchRedirected = false
	m.finalize(idx, e)
	m.drainFinalQ()
	return m.fetchRedirected
}

// tryPredict consults the VPT (and the address table) at decode, using the
// table's configured confidence threshold.
func (m *Machine) tryPredict(e *robEntry) {
	m.tryPredictAt(e, false, false)
}

// tryPredictConf is the confidence-arbitrated hybrid's prediction step: a
// value is only used at saturated confidence, and the address table is not
// consulted when the reuse test already supplied the address
// non-speculatively.
func (m *Machine) tryPredictConf(e *robEntry) {
	m.tryPredictAt(e, true, true)
}

func (m *Machine) tryPredictAt(e *robEntry, saturated, skipKnownAddr bool) {
	in := e.in
	minConf := m.cfg.VP.ResultTable.ConfThreshold
	if saturated {
		minConf = m.cfg.VP.ResultTable.ConfMax
	}
	// The stride schemes project along the stride by the number of older
	// in-flight instances of this pc (each loop iteration in the window
	// gets its own point); Magic, LVP and FCM ignore the count.
	inflight := 0
	if s := m.cfg.VP.Scheme; s == vp.Stride || s == vp.TwoDelta {
		m.forEachROB(func(_ int32, o *robEntry) bool {
			if o.pc == e.pc && o.seq < e.seq {
				inflight++
			}
			return true
		})
	}
	// Results: any register-writing, non-control, non-serializing op.
	if in.Dest != isa.NoReg && !in.Op.IsControl() && !in.Op.Serializes() {
		var oracleVal isa.Word
		have := false
		if e.traceIdx >= 0 {
			o, _ := m.oracle.at(e.traceIdx)
			oracleVal, have = o.result, true
		}
		if v, ok := m.vpt.PredictAt(e.pc, oracleVal, have, inflight, minConf); ok {
			m.traceEvent(e, func(ev *PipeEvent) { ev.Pred = true })
			e.predicted = true
			e.predVal = v
			e.hasResult = true
			e.result = v // speculative: consumers use it, finality pends
		}
	}
	// Addresses of memory operations.
	if m.vpa != nil && in.Op.IsMem() && !(skipKnownAddr && e.addrKnown) {
		aMin := m.cfg.VP.AddrTable.ConfThreshold
		if saturated {
			aMin = m.cfg.VP.AddrTable.ConfMax
		}
		var oracleAddr isa.Word
		have := false
		if e.traceIdx >= 0 {
			o, _ := m.oracle.at(e.traceIdx)
			oracleAddr, have = isa.Word(o.addr), true
		}
		if v, ok := m.vpa.PredictAt(e.pc, oracleAddr, have, inflight, aMin); ok {
			e.addrPred = true
			e.predAddrVal = uint32(v)
		}
	}
}

// lsqAlloc takes a load/store queue slot for a memory instruction.
func (m *Machine) lsqAlloc(idx int32, e *robEntry) {
	slot := wrap(m.lsqHead+m.lsqCount, int32(m.cfg.LSQSize))
	m.lsqCount++
	width := emu.LoadWidth(e.in.Op)
	if e.isStore {
		width = emu.StoreWidth(e.in.Op)
	}
	m.lsq[slot] = lsqEntry{
		valid:   true,
		rob:     idx,
		seq:     e.seq,
		isStore: e.isStore,
		width:   width,
	}
	e.lsq = slot
}
