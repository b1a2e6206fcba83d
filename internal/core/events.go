package core

import (
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
)

// processEvents handles this cycle's completion and verification events.
// Completions consume result-bus bandwidth (WBWidth per cycle); overflow
// carries into the next cycle and counts as resource contention.
func (m *Machine) processEvents() error {
	// Drain last cycle's carry-overs, then this cycle's wheel slot, in
	// place: events scheduled while draining always land in a different
	// wheel slot (delays are clamped to [1, wheelSize)), and new carry-overs
	// append to the swapped-in scratch buffer, so neither append invalidates
	// the slices being walked. The swap keeps both backing arrays alive —
	// the cycle loop allocates and copies nothing here in steady state.
	slot := m.cycle % wheelSize
	if len(m.wbCarry) == 0 && m.eventMask&(1<<slot) == 0 {
		// Nothing carried over and nothing scheduled for this cycle (a clear
		// occupancy bit implies the slot slice is empty — events only append
		// together with setting the bit). Skip the buffer-swap dance.
		if len(m.finalQ) != 0 {
			m.drainFinalQ()
		}
		return nil
	}
	carry := m.wbCarry
	m.wbCarry = m.evScratch[:0]
	slotEvs := m.wheel[slot]
	// The slot is about to drain; clearing its occupancy bit before the
	// walk keeps the mask correct even for events scheduled mid-drain
	// (those land in later slots and set their own bits).
	m.eventMask &^= 1 << slot
	busUsed := 0
	for pass := 0; pass < 2; pass++ {
		evs := carry
		if pass == 1 {
			evs = slotEvs
		}
		for _, ev := range evs {
			e := m.liveEntry(ev)
			if e == nil {
				continue
			}
			switch ev.kind {
			case evComplete:
				m.stats.ResourceRequests++
				if busUsed >= m.cfg.WBWidth {
					m.stats.ResourceDenials++
					m.wbCarry = append(m.wbCarry, ev)
					continue
				}
				busUsed++
				m.complete(ev.idx, e)
			case evVerify:
				m.verify(ev.idx, e)
			}
		}
	}
	m.wheel[slot] = slotEvs[:0]
	m.evScratch = carry[:0]
	m.drainFinalQ()
	return nil
}

// complete finishes one execution of an instruction.
func (m *Machine) complete(idx int32, e *robEntry) {
	e.executing = false
	e.execCount++
	m.traceEvent(e, func(ev *PipeEvent) { ev.Done = m.cycle })

	// Record the outcome.
	if e.isCtl {
		e.actualTaken = e.pendTaken
		e.actualNext = e.pendNext
	}
	if e.isStore {
		// Agen done: publish the address for disambiguation.
		e.addrKnown = true
		e.addr = e.pendAddr
		if e.lsq >= 0 {
			m.lsq[e.lsq].addrKnown = true
			m.lsq[e.lsq].addr = e.pendAddr
		}
	}
	if e.isLoad {
		e.addr = e.pendAddr
	}

	newVal := e.pendResult
	if e.in.Op == isa.OpJALR {
		newVal = isa.Word(e.pc + 4) // register result is the link, not the target
	}
	e.computed = newVal
	e.hasComputed = true

	if e.predicted && !e.verifyDone {
		// Consumers keep the predicted value; the comparison happens at
		// verification time (checkFinal schedules it once stable).
	} else {
		changed := !e.hasResult || e.result != newVal
		e.hasResult = true
		e.result = newVal
		if changed {
			m.broadcast(e, newVal)
		}
	}

	// IR: buffer the work (including wrong-path work) at completion. This
	// happens in late-validation mode too — Figure 3's "late" defers only
	// the benefit of a hit, not the buffering.
	if m.rb != nil {
		m.insertRB(e)
	}

	// Branch resolution policy: SB (and base/IR) resolves at execution;
	// NSB waits for finalization.
	if e.isCtl && !e.finalResolved {
		if !(m.vpActive() && m.cfg.VP.Resolution == NSB) {
			m.resolveBranch(idx, e)
		}
	}

	// A broadcast during the execution may have requested a re-execution;
	// with the entry no longer executing it can enter the issue queue.
	m.enqueueIssue(idx, e)
	m.enqueueFinal(idx)
}

// insertRB writes one completed execution into the reuse buffer.
func (m *Machine) insertRB(e *robEntry) {
	// A load issued on a predicted address may have executed before its
	// base operand was even available: the snapshot then does not imply the
	// address that was read, and buffering the pair would let a later reuse
	// return a value from the wrong location. Only internally consistent
	// load executions enter the buffer (this matters in the hybrid machine,
	// where address prediction and reuse coexist).
	if e.isLoad && emu.EffAddr(e.in, e.snapVal[0]) != e.pendAddr {
		return
	}
	l := m.rb.Insert(e.pc, e.in, e.snapVal[0], e.snapVal[1], e.pendResult, e.pendAddr,
		e.srcFrom[0], e.srcFrom[1], false, e.pendForwarded)
	if l.Idx >= 0 {
		e.rbLink = l
		e.insertedRB = true
	}
}

// verify compares a value prediction against the computed result; on a
// mismatch the corrected value is broadcast now — this is where the
// VP-verification latency is charged, and the first instruction of the
// dependent chain is the only one that pays it (§4.1.3).
func (m *Machine) verify(idx int32, e *robEntry) {
	if e.verifyDone || !e.hasComputed {
		return
	}
	e.verifyDone = true
	actual := e.computed
	e.hasResult = true
	if actual != e.predVal {
		if m.obs != nil {
			m.obs.vpMispredictEvent(m.cycle, e)
		}
		e.result = actual
		m.broadcast(e, actual)
	} else {
		e.result = actual
	}
	m.enqueueFinal(idx)
}

// broadcast delivers a (possibly new) result value to all consumers.
// Consumers that already executed with a different value are marked for
// re-execution; under ME they re-issue as soon as they can, under NME the
// issue stage holds them until all their inputs are final.
func (m *Machine) broadcast(e *robEntry, val isa.Word) {
	for _, c := range e.consumers {
		t := &m.rob[c.idx]
		if !t.valid || t.seq != c.seq {
			continue
		}
		if t.srcReady[c.slot] && t.srcVal[c.slot] == val {
			continue
		}
		t.srcReady[c.slot] = true
		t.srcVal[c.slot] = val
		t.srcFinal[c.slot] = false
		if (t.execCount > 0 || t.executing) && !t.snapshotCurrent() {
			t.needExec = true
		}
		m.enqueueIssue(c.idx, t)
	}
}

// enqueueFinal marks an entry for a finality re-check this cycle. The
// inFinalQ flag suppresses duplicates while the entry is still pending —
// re-checking an unchanged entry is a no-op, so only the first of a batch
// of wakes needs a queue slot.
func (m *Machine) enqueueFinal(idx int32) {
	e := &m.rob[idx]
	if e.inFinalQ {
		return
	}
	e.inFinalQ = true
	m.finalQ = append(m.finalQ, idx)
}

// drainFinalQ runs finality checks to a fixpoint. Finality propagates
// through consumer lists within a single cycle (the verification latency is
// charged only at prediction points, matching §4.1.4).
func (m *Machine) drainFinalQ() {
	// Index-based drain so the queue keeps its backing array; checkFinal
	// may append more work while we iterate (len is re-read every pass).
	// The pending flag clears before the check, so a wake caused by a
	// later queue item re-enqueues the entry within the same drain.
	for i := 0; i < len(m.finalQ); i++ {
		idx := m.finalQ[i]
		e := &m.rob[idx]
		e.inFinalQ = false
		if !e.valid || e.final {
			continue
		}
		m.checkFinal(idx, e)
	}
	m.finalQ = m.finalQ[:0]
}

// checkFinal applies the finalization rules (see DESIGN.md §5):
// all inputs final + a stable result; predicted entries additionally wait
// out the verification latency.
func (m *Machine) checkFinal(idx int32, e *robEntry) {
	if e.final || !e.allSrcFinal() {
		return
	}
	// Stable result?
	switch {
	case e.reused:
		// finalized at decode; never reaches here
	case !e.needsExecution():
		// J/JAL/syscall/addr-reused stores: nothing to execute
		if e.isStore && !e.addrKnown {
			return
		}
	default:
		if e.executing || e.needExec || e.execCount == 0 {
			return
		}
		if !e.snapshotCurrent() {
			e.needExec = true
			m.enqueueIssue(idx, e)
			return
		}
	}
	if e.predicted && !e.verifyDone {
		if !e.verifySched {
			e.verifySched = true
			if m.cfg.VP.VerifyLat == 0 {
				m.verify(idx, e)
				if e.final {
					return
				}
				// verify enqueued a re-check; fall through on next drain
				return
			}
			m.schedule(uint64(m.cfg.VP.VerifyLat), event{kind: evVerify, idx: idx, seq: e.seq})
		}
		return
	}
	m.finalize(idx, e)
}

// needsExecution reports whether the entry must pass through a functional
// unit at least once.
func (e *robEntry) needsExecution() bool {
	op := e.in.Op
	if op == isa.OpJ || op == isa.OpJAL || op.Serializes() {
		return false
	}
	if e.reused {
		return false
	}
	if e.isStore && e.addrReused {
		return false // the agen was reused; data is handled at commit
	}
	return true
}

// finalize marks an entry's result as architecturally final and propagates
// finality to consumers; NSB branches resolve here.
func (m *Machine) finalize(idx int32, e *robEntry) {
	if e.final {
		return
	}
	e.final = true
	e.finalAt = m.cycle
	e.needExec = false
	if !e.hasResult {
		e.hasResult = true
	}

	for _, c := range e.consumers {
		t := &m.rob[c.idx]
		if !t.valid || t.seq != c.seq {
			continue
		}
		if !t.srcReady[c.slot] || t.srcVal[c.slot] != e.result {
			t.srcReady[c.slot] = true
			t.srcVal[c.slot] = e.result
			if (t.execCount > 0 || t.executing) && !t.snapshotCurrent() {
				t.needExec = true
			}
		}
		t.srcFinal[c.slot] = true
		m.enqueueIssue(c.idx, t)
		m.enqueueFinal(c.idx)
	}

	if e.isCtl && !e.finalResolved {
		m.resolveBranch(idx, e)
		e.finalResolved = true
		if e.checkpoint != nil {
			m.freeCkpt(e.checkpoint)
			e.checkpoint = nil
			m.unresolved--
		}
	}
}

// resolveBranch takes the action on a branch outcome: if the machine is
// following a different path, squash and redirect. Squashes that steer
// toward a path that is not the final correct one are spurious (§4.2.2).
func (m *Machine) resolveBranch(idx int32, e *robEntry) {
	if !e.resolvedOnce {
		e.resolvedOnce = true
		e.resolveCycle = m.cycle
	}
	if e.actualNext == e.curPath {
		return
	}
	m.stats.Squashes++
	spurious := false
	if e.traceIdx >= 0 {
		o, ok := m.oracle.at(e.traceIdx + 1)
		spurious = ok && e.actualNext != o.pc
	}
	if spurious {
		m.stats.SpuriousSquashes++
	}
	if m.obs != nil {
		m.obs.squashEvent(m.cycle, e.pc, e.seq, e.actualNext, spurious)
	}
	m.squashAfter(idx, e)
}
