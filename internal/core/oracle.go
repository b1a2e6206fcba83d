package core

import (
	"math/bits"

	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
)

// The correct-path oracle.
//
// The core consults the functional execution of the program at decode (is
// this the correct path, and VP_Magic's oracle selection), at branch
// resolution (spurious-squash classification), at squash (trace-cursor
// repair) and at commit (every retiring instruction is checked against
// it). All of those reads fall between the commit cursor and one entry past
// the correct-path decode cursor, and every correct-path instruction in
// between sits in the ROB, so at most ROBSize+1 entries are ever live.
//
// The oracle is therefore execution-driven, as in sim-outorder: a
// functional emulator owned by the machine runs just ahead of the timing
// model, its results land in a power-of-two ring of at least ROBSize+1
// entries, and an entry is released when its instruction commits. Memory is
// bounded by the ROB, not by the program. A restored sampling interval
// supplies its own (interval-sized) TraceLog instead, and the window serves
// that log without stepping an emulator.

// oracleEntry is one correct-path instruction's functional outcome.
type oracleEntry struct {
	result isa.Word // destination value (0 when no destination)
	pc     uint32
	addr   uint32 // effective address for memory ops
	taken  bool   // direction for control ops
}

// oracleWindow is the live stretch of the correct path: entries
// [base, n) are in the ring, base is the next instruction to commit.
type oracleWindow struct {
	ring []oracleEntry
	mask int64
	base int64
	n    int64

	// Exactly one source is set: cpu (stepped on demand, at most max
	// instructions, 0 = until halt) or log (a supplied interval trace).
	cpu *emu.CPU
	max int64
	log *emu.TraceLog

	// err is the functional fault that ended the stream, if any. It stays
	// latent until the core commits up to the faulting instruction.
	err error
}

// resize gives the ring room for robSize+1 entries, reusing it when its
// size is unchanged.
func (w *oracleWindow) resize(robSize int) {
	n := 1 << bits.Len(uint(robSize)) // smallest power of two > robSize
	if len(w.ring) != n {
		w.ring = make([]oracleEntry, n)
		w.mask = int64(n - 1)
	}
}

// rewind empties the window; the next read restarts at the source's
// current position.
func (w *oracleWindow) rewind() {
	w.base, w.n, w.err = 0, 0, nil
}

// serve switches the window to a supplied trace, dropping any emulator.
func (w *oracleWindow) serve(log *emu.TraceLog) {
	w.cpu, w.max, w.log = nil, 0, log
	w.rewind()
}

// at returns correct-path entry i, or false when the correct path ends
// before i (the program halted, the instruction cap or the supplied trace
// ran out, or the emulator faulted). i must lie in [base, base+len(ring)).
func (w *oracleWindow) at(i int64) (*oracleEntry, bool) {
	if i >= w.n && !w.fill(i) {
		return nil, false
	}
	return &w.ring[i&w.mask], true
}

// release retires the oldest entry: its instruction has committed.
func (w *oracleWindow) release() { w.base++ }

// fill produces entries into all of the ring's free space, stopping early
// where the correct path ends, and reports whether entry i now exists.
func (w *oracleWindow) fill(i int64) bool {
	limit := w.base + int64(len(w.ring))
	if i >= limit {
		panic("core: oracle read beyond its window")
	}
	if w.log != nil {
		limit = min(limit, int64(w.log.Len()))
		for ; w.n < limit; w.n++ {
			w.ring[w.n&w.mask] = oracleEntry{
				result: w.log.Result[w.n],
				pc:     w.log.PC[w.n],
				addr:   w.log.Addr[w.n],
				taken:  w.log.Taken[w.n],
			}
		}
		return i < w.n
	}
	if w.max > 0 {
		limit = min(limit, w.max)
	}
	c, ring, n := w.cpu, w.ring, w.n
	for ; n < limit && !c.Halted && w.err == nil; n++ {
		if err := c.Step(); err != nil {
			w.err = err
			break
		}
		t := c.Last()
		ring[n&w.mask] = oracleEntry{result: t.DestVal, pc: t.PC, addr: t.Addr, taken: t.Taken}
	}
	w.n = n
	return i < n
}

// endedAtHalt reports whether the correct path ends because the program
// halted, rather than at an instruction cap or an interval's end.
func (w *oracleWindow) endedAtHalt() bool {
	if w.log != nil {
		return w.log.Halted
	}
	return w.cpu.Halted
}
