package core

import (
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/reuse"
)

// fuFor maps a functional-unit class to its pool.
func (m *Machine) fuFor(class isa.FUClass) *fuPool {
	switch class {
	case isa.FUIntALU:
		return m.aluPool
	case isa.FULoad, isa.FUStore:
		return m.lsPool
	case isa.FUIntMult, isa.FUIntDiv:
		return m.imdPool
	case isa.FUFPAdd:
		return m.fpaPool
	case isa.FUFPMult, isa.FUFPDiv, isa.FUFPSqrt:
		return m.fpmPool
	}
	return nil
}

// issueOutcome classifies one issue attempt so the queue knows whether to
// keep retrying the entry. The distinction preserves the per-cycle
// contention accounting of the old full-ROB scan: attempts that fail with
// stat side effects (resource denial) or on a condition with no targeted
// wake event (disambiguation) must retry every cycle, while operand waits
// are purely event-driven.
type issueOutcome uint8

const (
	// issuedOK: the execution started; the entry leaves the queue.
	issuedOK issueOutcome = iota
	// issueWait: blocked on a condition no wake event tracks (FU or cache
	// port denial, store-address disambiguation); retry next cycle.
	issueWait
	// issueSleep: an operand is missing or not final; leave the queue — a
	// broadcast or finalization of the producer re-enqueues the entry.
	issueSleep
)

// enqueueIssue adds an entry to the issue queue if it may be able to start
// an execution. Called on every transition that can wake a sleeping
// instruction: dispatch, an operand value arriving or changing
// (broadcast), an operand becoming final (finalize), a stale-snapshot
// re-execution demand (checkFinal) and completion with a pending
// re-execution request.
func (m *Machine) enqueueIssue(idx int32, e *robEntry) {
	if e.inIssueQ || !e.needExec || e.executing || e.reused || e.final {
		return
	}
	e.inIssueQ = true
	m.issueQ = append(m.issueQ, issueRef{idx: idx, seq: e.seq})
}

// issue starts up to IssueWidth ready instructions (oldest first), charging
// functional-unit and cache-port contention per §4.2.3. Candidates come
// from the dependency-driven issue queue, so the cost scales with ready
// work rather than ROB size; the preconditions checked here are exactly
// the old full-ROB scan's skip rules, making the cycle timing and stats
// identical to scanning.
func (m *Machine) issue() {
	q := m.issueQ
	if len(q) == 0 {
		return
	}
	// Oldest first. Dispatch enqueues in age order already, but wakeups
	// enqueue in event order; insertion sort is near-linear on the almost-
	// sorted queue and allocates nothing.
	for i := 1; i < len(q); i++ {
		it := q[i]
		j := i
		for j > 0 && q[j-1].seq > it.seq {
			q[j] = q[j-1]
			j--
		}
		q[j] = it
	}
	width := m.cfg.IssueWidth
	issued := 0
	kept := q[:0]
	for i := 0; i < len(q); i++ {
		it := q[i]
		e := &m.rob[it.idx]
		if !e.valid || e.seq != it.seq {
			continue // squashed; a recycled slot re-enqueues at dispatch
		}
		if issued >= width {
			kept = append(kept, q[i:]...) // in-place suffix move, len(kept) <= i
			break
		}
		if !e.needExec || e.executing || e.reused || e.final {
			e.inIssueQ = false
			continue
		}
		// NME: re-executions wait for all inputs to become final; the
		// finalize consumer walk re-enqueues when the last one lands.
		if m.vpActive() && m.cfg.VP.Reexec == NME && e.execCount > 0 && !e.allSrcFinal() {
			e.inIssueQ = false
			continue
		}
		var out issueOutcome
		switch {
		case e.isLoad:
			out = m.issueLoad(it.idx, e)
		case e.isStore:
			out = m.issueStore(it.idx, e)
		default:
			out = m.issueALU(it.idx, e)
		}
		switch out {
		case issuedOK:
			issued++
			e.inIssueQ = false
		case issueWait:
			kept = append(kept, it)
		default:
			e.inIssueQ = false
		}
	}
	m.issueQ = kept
}

// issueALU starts a non-memory operation.
func (m *Machine) issueALU(idx int32, e *robEntry) issueOutcome {
	if !e.allSrcReady() {
		return issueSleep
	}
	info := e.in.Op.Info()
	pool := m.fuFor(info.FU)
	timing := isa.Timing[info.FU]
	if pool != nil {
		m.stats.ResourceRequests++
		if !pool.acquire(m.cycle, timing.IssueLat) {
			m.stats.ResourceDenials++
			return issueWait
		}
	}
	m.beginExec(idx, e)

	s1, s2 := e.srcVal[0], e.srcVal[1]
	var value isa.Word
	switch {
	case e.in.Op.IsCondBranch():
		e.pendTaken = emu.BranchTaken(e.in.Op, s1, s2)
		if e.pendTaken {
			e.pendNext = e.in.BranchTarget(e.pc)
		} else {
			e.pendNext = e.pc + 4
		}
	case e.in.Op == isa.OpJR || e.in.Op == isa.OpJALR:
		e.pendTaken = true
		e.pendNext = uint32(s1)
	default:
		value = emu.ALUResult(e.in, s1, s2, e.pc)
	}
	// pendResult is what the reuse buffer records; complete substitutes
	// JALR's link for the register result.
	e.pendResult, _ = reuse.Encode(e.in.Op, e.pendTaken, s1, value, 0)
	m.schedule(uint64(timing.Latency), event{kind: evComplete, idx: idx, seq: e.seq})
	return issuedOK
}

// issueStore starts a store's address generation. Disambiguation requires
// final addresses, so the base operand must be final.
func (m *Machine) issueStore(idx int32, e *robEntry) issueOutcome {
	if !(e.srcReady[0] && e.srcFinal[0]) {
		return issueSleep
	}
	m.stats.ResourceRequests++
	if !m.lsPool.acquire(m.cycle, 1) {
		m.stats.ResourceDenials++
		return issueWait
	}
	m.beginExec(idx, e)
	e.pendResult, e.pendAddr = reuse.Encode(e.in.Op, false, 0, 0, emu.EffAddr(e.in, e.srcVal[0]))
	m.schedule(1, event{kind: evComplete, idx: idx, seq: e.seq})
	return issuedOK
}

// issueLoad starts a load: address generation (skipped when the address was
// reused or predicted), disambiguation against older stores, then either a
// forward from the store queue or a D-cache access.
func (m *Machine) issueLoad(idx int32, e *robEntry) issueOutcome {
	var addr uint32
	usedPred := false
	switch {
	case e.addrReused:
		addr = e.addr
	case e.srcReady[0]:
		addr = emu.EffAddr(e.in, e.srcVal[0])
	case e.addrPred:
		addr = e.predAddrVal
		usedPred = true
	default:
		return issueSleep // no address available yet
	}

	// Table 1: loads execute only after all preceding store addresses are
	// known. (A dependence stall, not resource contention.) No event marks
	// a store address becoming known, so the load polls from the queue.
	fwd, haveFwd, blocked := m.scanStores(e, addr)
	if blocked {
		return issueWait
	}

	// Acquire the cache port first (when needed), then the load/store unit,
	// so a denial never strands a half-acquired resource.
	if !haveFwd {
		m.stats.ResourceRequests++
		if m.dcPortsUsed >= m.cfg.MemPorts {
			m.stats.ResourceDenials++
			return issueWait
		}
	}
	m.stats.ResourceRequests++
	if !m.lsPool.acquire(m.cycle, 1) {
		m.stats.ResourceDenials++
		return issueWait
	}

	agen := uint64(1)
	if e.addrReused || usedPred {
		agen = 0 // the address computation was bypassed
	}
	var lat uint64
	var value isa.Word
	if haveFwd {
		lat = agen + 1
		value = extractLoad(e.in.Op, addr, fwd)
		e.pendForwarded = true
	} else {
		m.dcPortsUsed++
		lat = agen + uint64(m.dcache.Access(addr))
		value = emu.LoadValue(m.mem, e.in.Op, addr)
		e.pendForwarded = false
	}
	m.beginExec(idx, e)
	e.pendResult, e.pendAddr = reuse.Encode(e.in.Op, false, 0, value, addr)
	e.usedPredAddr = usedPred
	m.schedule(lat, event{kind: evComplete, idx: idx, seq: e.seq})
	return issuedOK
}

// beginExec snapshots the operand values an execution will use.
func (m *Machine) beginExec(idx int32, e *robEntry) {
	e.executing = true
	e.needExec = false
	e.snapVal = e.srcVal
	e.snapValid = true
	m.stats.Executed++
	m.traceEvent(e, func(ev *PipeEvent) {
		if ev.Issue == 0 {
			ev.Issue = m.cycle
		}
		ev.Execs++
	})
}

// fwdSource describes a store-queue forward.
type fwdSource struct {
	addr  uint32
	width uint32
	data  isa.Word
}

// scanStores checks all older stores for the Table 1 disambiguation rules.
// It returns a forwarding source (with have=true) when the youngest older
// overlapping store fully contains the load and its data is final, or
// blocked=true when the load cannot execute yet. fwdSource is returned by
// value to keep the issue stage allocation-free.
func (m *Machine) scanStores(e *robEntry, addr uint32) (fwd fwdSource, have, blocked bool) {
	width := emu.LoadWidth(e.in.Op)
	// Scan youngest-to-oldest among older stores; the first overlap decides.
	for i := m.lsqCount - 1; i >= 0; i-- {
		slot := wrap(m.lsqHead+i, int32(m.cfg.LSQSize))
		q := &m.lsq[slot]
		if !q.valid || q.seq >= e.seq || !q.isStore {
			continue
		}
		if !q.addrKnown {
			return fwdSource{}, false, true // an older store address is unknown
		}
		if have {
			continue // already have the youngest overlap; older ones hidden
		}
		if q.addr < addr+width && addr < q.addr+q.width {
			// Overlap: forward only on full containment with final data.
			st := &m.rob[q.rob]
			dataFinal := st.valid && st.seq == q.seq && st.srcReady[1] && st.srcFinal[1]
			if addr >= q.addr && addr+width <= q.addr+q.width && dataFinal {
				fwd = fwdSource{addr: q.addr, width: q.width, data: st.srcVal[1]}
				have = true
				continue
			}
			return fwdSource{}, false, true // partial overlap or data not final: wait
		}
	}
	return fwd, have, false
}

// extractLoad slices the loaded bytes out of a forwarded store value.
func extractLoad(op isa.Op, addr uint32, f fwdSource) isa.Word {
	sh := 8 * (addr - f.addr)
	v := uint32(f.data) >> sh
	switch op {
	case isa.OpLB:
		return isa.Word(uint32(int32(int8(v))))
	case isa.OpLBU:
		return isa.Word(v & 0xFF)
	case isa.OpLH:
		return isa.Word(uint32(int32(int16(v))))
	case isa.OpLHU:
		return isa.Word(v & 0xFFFF)
	}
	return isa.Word(v)
}

// loadReuseSafe reports whether reusing a load's value at decode is
// non-speculative: every older store address must be known and none may
// overlap the load's bytes.
func (m *Machine) loadReuseSafe(e *robEntry, addr uint32) bool {
	width := emu.LoadWidth(e.in.Op)
	for i := m.lsqCount - 1; i >= 0; i-- {
		slot := wrap(m.lsqHead+i, int32(m.cfg.LSQSize))
		q := &m.lsq[slot]
		if !q.valid || q.seq >= e.seq || !q.isStore {
			continue
		}
		if !q.addrKnown {
			return false
		}
		if q.addr < addr+width && addr < q.addr+q.width {
			return false
		}
	}
	return true
}
