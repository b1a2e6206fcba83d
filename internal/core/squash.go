package core

import "github.com/vpir-sim/vpir/internal/isa"

// squashAfter discards every instruction younger than e, restores the
// rename and branch-predictor state from e's checkpoint, and redirects
// fetch to e.actualNext.
func (m *Machine) squashAfter(idx int32, e *robEntry) {
	// Walk from the youngest entry back to e.
	for m.robCount > 0 {
		tail := m.robIdx(m.robCount - 1)
		if tail == idx {
			break
		}
		t := &m.rob[tail]
		m.traceEvent(t, func(ev *PipeEvent) { ev.Squash = true })
		if t.execCount > 0 {
			m.stats.ExecSquashed++
			// IR buffers wrong-path work; mark the entry so a later reuse
			// counts as recovered work (Table 5).
			if m.rb != nil && t.insertedRB {
				m.rb.MarkWrongPath(t.rbLink)
			}
		}
		if t.checkpoint != nil {
			if !t.finalResolved {
				m.unresolved--
			}
			m.freeCkpt(t.checkpoint)
			t.checkpoint = nil
		}
		if m.serialize == tail {
			m.serialize = -1
		}
		if t.lsq >= 0 {
			m.lsq[t.lsq].valid = false
		}
		t.valid = false
		t.consumers = t.consumers[:0]
		m.robCount--
	}
	// Compact the LSQ tail.
	for m.lsqCount > 0 {
		tail := wrap(m.lsqHead+m.lsqCount-1, int32(m.cfg.LSQSize))
		if m.lsq[tail].valid {
			break
		}
		m.lsqCount--
	}

	// Rename and predictor state.
	if e.checkpoint != nil {
		m.createVec = e.checkpoint.createVec
		m.createSeq = e.checkpoint.createSeq
		m.bp.Restore(e.checkpoint.bp)
		m.replayBranchEffects(e)
	}

	// Front end redirect.
	m.fetchHead, m.fetchCount = 0, 0
	m.fetchPC = e.actualNext
	m.fetchReady = m.cycle
	m.lastFetchLine = ^uint32(0)
	m.fetchRedirected = true
	e.curPath = e.actualNext

	// Correct-path trace cursor repair. Past the end of the correct path
	// the cursor still moves on: decode finds no entry there.
	if e.traceIdx < 0 {
		m.traceCursor = -2 // still on a wrong path
	} else if o, ok := m.oracle.at(e.traceIdx + 1); ok && o.pc != e.actualNext {
		m.traceCursor = -2 // spurious redirect: the new path is wrong
	} else {
		m.traceCursor = e.traceIdx + 1
	}
}

// replayBranchEffects re-applies the squashing instruction's own effect on
// the speculative predictor state (history bit, RAS push/pop) after a
// checkpoint restore, this time with the actual outcome.
func (m *Machine) replayBranchEffects(e *robEntry) {
	switch {
	case e.in.Op.IsCondBranch():
		m.bp.SpecUpdateHist(e.actualTaken)
	case e.in.Op == isa.OpJR:
		if e.in.Src1 == isa.RegRA {
			m.bp.PopRAS()
		}
	case e.in.Op == isa.OpJALR:
		m.bp.PushRAS(e.pc + 4)
	}
}
