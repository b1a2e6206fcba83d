// Package reuse implements the Reuse Buffer (RB) of the paper, scheme
// S_{n+d} (Sodani & Sohi, ISCA 1997) with the two augmentations described
// in §4.1.2 of the MICRO 1998 paper:
//
//  1. operand values are stored with each entry, so a start entry is dead
//     only while the current operand value differs from the stored one;
//  2. an entry whose operand values become current again is valid again
//     (revalidation).
//
// With operand values stored, the name-based invalidate/revalidate machinery
// of the original scheme is functionally equivalent to comparing the stored
// operand values against the operand values available at the reuse test —
// which is how Test is implemented. Dependence pointers are still recorded
// (the 'd' in S_{n+d}); they enable same-cycle reuse of dependent chains:
// an entry whose operand link points at an entry reused earlier in the same
// decode group is reusable even though its operand value is not yet
// available from the register file, exactly as in the paper (chains of up
// to the decode width collapse in one cycle).
//
// Memory: load entries carry the effective address and remain result-
// reusable until a store writes to that address (InvalidateStores); after
// that only the address computation is reusable ("address reuse", the case
// the paper highlights for compress). Store entries are address-only.
//
// Entries are inserted when an instruction completes execution — including
// wrong-path instructions, which is how IR recovers useful work from
// branch-misprediction squashes (§3.2, Table 5).
package reuse

import (
	"fmt"
	"math/rand"

	"github.com/vpir-sim/vpir/internal/isa"
)

// Config sizes the reuse buffer. The paper uses 4 K entries, 4-way (§4.1.3),
// i.e. up to 4 instances per instruction.
type Config struct {
	Entries int
	Ways    int
}

// DefaultConfig returns the paper's 4 K-entry, 4-way RB.
func DefaultConfig() Config { return Config{Entries: 4 << 10, Ways: 4} }

// Link identifies an RB entry at a point in time; generation counters
// detect eviction and overwrite, killing stale dependence pointers.
type Link struct {
	Idx int32
	Gen uint32
}

// NoLink marks an absent dependence pointer (operand came from the
// register file).
var NoLink = Link{Idx: -1}

// Operand describes one source operand at the reuse test: whether its value
// is available to the test (committed, or completed in-flight, or produced
// by an entry reused earlier in the same cycle) and the value itself.
type Operand struct {
	Ready bool
	Val   isa.Word
	// ReusedFrom is the RB entry that produced this operand via reuse in
	// the current decode group (NoLink if none); enables chain reuse.
	ReusedFrom Link
}

// TestResult is the outcome of a reuse test.
type TestResult struct {
	Hit     bool     // result reusable (full reuse)
	AddrHit bool     // memory op: effective address reusable
	Value   isa.Word // result (valid when Hit)
	Addr    uint32   // effective address (valid when Hit or AddrHit)
	Entry   Link     // the matching entry
	Chained bool     // matched through a same-cycle dependence chain
	// WrongPathWork is set when the matched entry was inserted by a
	// squashed (wrong-path) instruction — the "recovered useful work" of
	// Table 5.
	WrongPathWork bool
}

type entry struct {
	valid bool
	tag   uint32 // pc
	gen   uint32
	tick  uint64

	op       isa.Op
	result   isa.Word
	src1Name isa.Reg
	src2Name isa.Reg
	src1Val  isa.Word
	src2Val  isa.Word
	src1Link Link
	src2Link Link

	isMem    bool
	isLoad   bool
	addr     uint32
	width    uint32
	memValid bool // load result still valid w.r.t. stores

	wrongPath bool // inserted by a squashed instruction

	// Intrusive load-index node state, one node per word-aligned key the
	// load's byte range touches (slot 0 = first word, slot 1 = last word
	// when different). A node id is entry-index<<1 | slot; prev/next of -1
	// terminate the chain, idxOn guards whether the node is linked at all.
	idxWord [2]uint32
	idxNext [2]int32
	idxPrev [2]int32
	idxOn   [2]bool
}

// Stats counts reuse buffer activity.
type Stats struct {
	Tests      uint64
	Hits       uint64 // full reuse
	AddrHits   uint64 // address-only reuse (memory ops)
	ChainHits  uint64 // hits established through a dependence pointer
	Inserts    uint64
	Updates    uint64 // insert found an identical instance and refreshed it
	Evictions  uint64
	StoreKills uint64 // load results invalidated by stores
	Recovered  uint64 // hits on wrong-path entries
}

// noTag is the probe-filter value of an invalid entry. PCs are word-aligned
// text addresses, so no real tag can collide with it.
const noTag = ^uint32(0)

// Buffer is the reuse buffer.
type Buffer struct {
	cfg     Config
	setMask uint32
	ways    int
	entries []entry
	// tags mirrors entries[i].tag (noTag while invalid). Test and Insert
	// probe every way of a set for every decoded/completed instruction;
	// the sidecar keeps a whole set's tags in one cache line so the common
	// non-matching ways are rejected without touching their entry structs.
	tags  []uint32
	tick  uint64
	stats Stats

	// Intrusive load index: valid load entries link themselves into
	// per-word hash chains (nodes embedded in the entry structs) so a
	// committing store invalidates overlapping loads in O(matches) with
	// zero steady-state allocations. heads holds the first node id of each
	// bucket's doubly-linked chain, -1 when empty.
	heads      []int32
	bucketMask uint32
}

// New builds an empty reuse buffer.
func New(cfg Config) *Buffer {
	sets := cfg.Entries / cfg.Ways
	n := sets * cfg.Ways
	buckets := 16
	for buckets < n {
		buckets <<= 1
	}
	b := &Buffer{
		cfg:        cfg,
		setMask:    uint32(sets - 1),
		ways:       cfg.Ways,
		entries:    make([]entry, n),
		tags:       make([]uint32, n),
		heads:      make([]int32, buckets),
		bucketMask: uint32(buckets - 1),
	}
	for i := range b.tags {
		b.tags[i] = noTag
	}
	for i := range b.heads {
		b.heads[i] = -1
	}
	return b
}

// Config returns the buffer configuration.
func (b *Buffer) Config() Config { return b.cfg }

// Stats returns a copy of the counters.
func (b *Buffer) Stats() Stats { return b.stats }

func (b *Buffer) setBase(pc uint32) int32 {
	return int32((pc>>2)&b.setMask) * int32(b.ways)
}

// Get returns the entry a link points at, or nil if the link is stale.
func (b *Buffer) get(l Link) *entry {
	if l.Idx < 0 || int(l.Idx) >= len(b.entries) {
		return nil
	}
	e := &b.entries[l.Idx]
	if !e.valid || e.gen != l.Gen {
		return nil
	}
	return e
}

// operandOK decides whether one operand slot of entry e passes the reuse
// test. chained is set when the slot is satisfied through the dependence
// pointer rather than an architectural value match.
func (b *Buffer) operandOK(name isa.Reg, stored isa.Word, link Link, op Operand) (ok, chained bool) {
	if name == isa.NoReg {
		return true, false
	}
	// Same-cycle chain: the operand's producer was itself reused from the
	// exact entry our dependence pointer names.
	if link.Idx >= 0 && op.ReusedFrom.Idx == link.Idx && op.ReusedFrom.Gen == link.Gen {
		return true, true
	}
	// Value match against the available operand value. This subsumes
	// invalidation-on-overwrite and revalidation (augmentations 1 and 2),
	// and also covers a chain producer reused from a *different* instance
	// with the same result.
	if op.Ready && op.Val == stored {
		return true, false
	}
	return false, false
}

// Test runs the reuse test for the instruction at pc against all buffered
// instances. Loads may hit fully (result) or address-only; stores can only
// hit address-only. The first fully matching instance wins; an address-only
// match is returned when no full match exists.
func (b *Buffer) Test(pc uint32, in *isa.Inst, op1, op2 Operand) TestResult {
	b.stats.Tests++
	base := b.setBase(pc)
	// The address-only fallback is tracked by value: a pointer would make
	// every candidate TestResult escape to the heap, and Test runs for
	// every decoded instruction.
	var addrOnly TestResult
	haveAddrOnly := false

	for w := 0; w < b.ways; w++ {
		idx := base + int32(w)
		if b.tags[idx] != pc {
			continue
		}
		e := &b.entries[idx]
		if e.op != in.Op {
			continue
		}
		ok1, ch1 := b.operandOK(e.src1Name, e.src1Val, e.src1Link, op1)
		if !ok1 {
			continue
		}
		ok2, ch2 := b.operandOK(e.src2Name, e.src2Val, e.src2Link, op2)
		// For memory ops, src2 is the store data (stores) or absent (loads);
		// the address depends only on src1 (the base register).
		if e.isMem {
			if e.isLoad {
				res := TestResult{
					Addr:          e.addr,
					Entry:         Link{Idx: idx, Gen: e.gen},
					Chained:       ch1,
					WrongPathWork: e.wrongPath,
				}
				if e.memValid {
					res.Hit = true
					res.AddrHit = true
					res.Value = e.result
					b.recordHit(e, res.Chained)
					return res
				}
				res.AddrHit = true
				if !haveAddrOnly {
					addrOnly = res
					haveAddrOnly = true
				}
				continue
			}
			// Store: address reuse only (src1 = base matched).
			if !haveAddrOnly {
				addrOnly = TestResult{
					AddrHit:       true,
					Addr:          e.addr,
					Entry:         Link{Idx: idx, Gen: e.gen},
					Chained:       ch1,
					WrongPathWork: e.wrongPath,
				}
				haveAddrOnly = true
			}
			continue
		}
		if !ok2 {
			continue
		}
		res := TestResult{
			Hit:           true,
			Value:         e.result,
			Entry:         Link{Idx: idx, Gen: e.gen},
			Chained:       ch1 || ch2,
			WrongPathWork: e.wrongPath,
		}
		b.recordHit(e, res.Chained)
		return res
	}
	if haveAddrOnly {
		b.stats.AddrHits++
		e := &b.entries[addrOnly.Entry.Idx]
		e.tick = b.nextTick()
		if e.wrongPath {
			b.stats.Recovered++
			e.wrongPath = false
		}
		return addrOnly
	}
	return TestResult{Entry: NoLink}
}

func (b *Buffer) recordHit(e *entry, chained bool) {
	b.stats.Hits++
	if chained {
		b.stats.ChainHits++
	}
	if e.wrongPath {
		b.stats.Recovered++
		e.wrongPath = false
	}
	e.tick = b.nextTick()
}

func (b *Buffer) nextTick() uint64 {
	b.tick++
	return b.tick
}

// Encode returns the result and address an execution of op buffers, given
// its branch outcome, first operand value, destination value and effective
// address: a conditional branch buffers its outcome (1 taken, 0 not), an
// indirect jump its target (the first operand, not the link), a store its
// address alone, a load its value and address, and every other op its
// destination value. The timing core and functional warming both encode
// through here, which is what keeps a warmed buffer bit-identical to one
// the core filled.
func Encode(op isa.Op, taken bool, src1, dest isa.Word, addr uint32) (isa.Word, uint32) {
	switch {
	case op.IsCondBranch():
		if taken {
			return 1, 0
		}
		return 0, 0
	case op == isa.OpJR || op == isa.OpJALR:
		return src1, 0
	case op.IsStore():
		return 0, addr
	case op.IsLoad():
		return dest, addr
	}
	return dest, 0
}

// Insert records a completed execution in the buffer and returns a link to
// the entry (for consumers' dependence pointers). If an identical instance
// (same pc, op and operand values) exists it is refreshed in place.
// wrongPath marks work inserted from a path that was (or will be) squashed.
//
// forwarded marks a load whose value came from an in-flight store rather
// than memory: such a value may never reach memory (the store can be
// squashed), so the entry is inserted address-only (memValid=false). A
// value read from memory is safe to buffer: any later store to it commits
// through InvalidateStores.
func (b *Buffer) Insert(pc uint32, in *isa.Inst, src1Val, src2Val isa.Word,
	result isa.Word, addr uint32, link1, link2 Link, wrongPath, forwarded bool) Link {

	if in.Op.Serializes() || in.Op == isa.OpJ || in.Op == isa.OpInvalid {
		return NoLink
	}
	// A dependence pointer is only kept when the linked entry currently
	// produces exactly the operand value being recorded. A link captured
	// from an earlier (e.g. value-speculative) producer instance whose
	// entry holds a different result would let a later chain reuse deliver
	// a result computed from a different operand.
	if e := b.get(link1); e == nil || e.result != src1Val {
		link1 = NoLink
	}
	if e := b.get(link2); e == nil || e.result != src2Val {
		link2 = NoLink
	}
	base := b.setBase(pc)
	var victim int32 = -1
	for w := 0; w < b.ways; w++ {
		idx := base + int32(w)
		if b.tags[idx] == noTag {
			if victim < 0 {
				victim = idx
			}
			continue
		}
		if b.tags[idx] != pc {
			continue
		}
		e := &b.entries[idx]
		if e.op == in.Op && e.src1Val == src1Val && e.src2Val == src2Val {
			// Identical instance: refresh result and revalidate memory. A
			// changed result (possible only for loads: same address, new
			// memory contents) invalidates inbound dependence pointers by
			// advancing the generation — a chain link must never deliver a
			// value different from the one recorded when it was formed.
			b.stats.Updates++
			b.unindexLoad(idx, e)
			if e.result != result {
				e.gen++
			}
			e.result = result
			e.addr = addr
			e.memValid = !forwarded
			e.src1Link = link1
			e.src2Link = link2
			e.tick = b.nextTick()
			if !wrongPath {
				e.wrongPath = false
			}
			b.indexLoad(idx, e)
			return Link{Idx: idx, Gen: e.gen}
		}
	}
	if victim < 0 {
		// Evict LRU.
		victim = base
		for w := 1; w < b.ways; w++ {
			idx := base + int32(w)
			if b.entries[idx].tick < b.entries[victim].tick {
				victim = idx
			}
		}
		b.stats.Evictions++
	}
	e := &b.entries[victim]
	b.unindexLoad(victim, e)
	gen := e.gen + 1
	// Field-by-field overwrite: a composite literal would build the entry in
	// a temporary and copy it, and Insert runs for every completed execution.
	// Every field is assigned except the index-node state, which unindexLoad
	// just retired (idxOn false; the cursors are dead until the next link).
	e.valid = true
	e.tag = pc
	b.tags[victim] = pc
	e.gen = gen
	e.tick = b.nextTick()
	e.op = in.Op
	e.result = result
	e.src1Name = in.Src1
	e.src2Name = in.Src2
	e.src1Val = src1Val
	e.src2Val = src2Val
	e.src1Link = link1
	e.src2Link = link2
	e.isMem = in.Op.IsMem()
	e.isLoad = in.Op.IsLoad()
	e.addr = addr
	e.width = 0
	e.memValid = !forwarded
	e.wrongPath = wrongPath
	if e.isMem {
		switch in.Op {
		case isa.OpLB, isa.OpLBU, isa.OpSB:
			e.width = 1
		case isa.OpLH, isa.OpLHU, isa.OpSH:
			e.width = 2
		default:
			e.width = 4
		}
	}
	b.stats.Inserts++
	b.indexLoad(victim, e)
	return Link{Idx: victim, Gen: gen}
}

// loadWords returns the word-aligned keys a load entry's byte range touches.
func loadWords(addr, width uint32) [2]uint32 {
	first := addr >> 2
	last := (addr + width - 1) >> 2
	return [2]uint32{first, last}
}

// bucket hashes a word-aligned address key to a chain head. The
// multiplicative mix keeps strided access patterns from aliasing through
// the power-of-two mask.
func (b *Buffer) bucket(word uint32) uint32 {
	return (word * 0x9e3779b1) & b.bucketMask
}

// linkNode pushes entry idx's node slot onto the head of word's chain.
func (b *Buffer) linkNode(idx int32, slot int, word uint32) {
	e := &b.entries[idx]
	nid := idx<<1 | int32(slot)
	h := b.bucket(word)
	next := b.heads[h]
	e.idxWord[slot] = word
	e.idxNext[slot] = next
	e.idxPrev[slot] = -1
	e.idxOn[slot] = true
	if next >= 0 {
		b.entries[next>>1].idxPrev[next&1] = nid
	}
	b.heads[h] = nid
}

// unlinkNode removes entry idx's node slot from its chain in O(1).
func (b *Buffer) unlinkNode(idx int32, slot int) {
	e := &b.entries[idx]
	prev, next := e.idxPrev[slot], e.idxNext[slot]
	if prev >= 0 {
		b.entries[prev>>1].idxNext[prev&1] = next
	} else {
		b.heads[b.bucket(e.idxWord[slot])] = next
	}
	if next >= 0 {
		b.entries[next>>1].idxPrev[next&1] = prev
	}
	e.idxOn[slot] = false
}

func (b *Buffer) indexLoad(idx int32, e *entry) {
	if !e.valid || !e.isLoad {
		return
	}
	w := loadWords(e.addr, e.width)
	b.linkNode(idx, 0, w[0])
	if w[1] != w[0] {
		b.linkNode(idx, 1, w[1])
	}
}

func (b *Buffer) unindexLoad(idx int32, e *entry) {
	if e.idxOn[0] {
		b.unlinkNode(idx, 0)
	}
	if e.idxOn[1] {
		b.unlinkNode(idx, 1)
	}
}

// InvalidateStores kills the result-validity of load entries whose byte
// range overlaps a store of width bytes at addr; the address computation
// stays reusable (that is the paper's "address reuse"). Called when a store
// commits. Returns how many entries were invalidated.
//
// Chain membership is the invariant "valid load entry": entries link on
// indexLoad and unlink before being overwritten, so the walk only needs to
// filter hash collisions (nodes of a different word in the same bucket).
func (b *Buffer) InvalidateStores(addr, width uint32) int {
	killed := 0
	w := loadWords(addr, width)
	for word := w[0]; ; word++ {
		for nid := b.heads[b.bucket(word)]; nid >= 0; {
			idx, slot := nid>>1, nid&1
			e := &b.entries[idx]
			nid = e.idxNext[slot]
			if e.idxWord[slot] != word || !e.memValid {
				continue
			}
			if e.addr < addr+width && addr < e.addr+e.width {
				e.memValid = false
				b.stats.StoreKills++
				killed++
			}
		}
		if word == w[1] {
			break
		}
	}
	return killed
}

// MarkWrongPath flags an entry as wrong-path work (called when the inserting
// instruction is squashed after insertion).
func (b *Buffer) MarkWrongPath(l Link) {
	if e := b.get(l); e != nil {
		e.wrongPath = true
	}
}

// CorruptTarget selects which RB entry field a fault-injection campaign
// corrupts. The distinction matters because IR validates *early*: the
// S_{n+d} reuse test guards the operand names, operand values and
// dependence pointers (a corrupted entry simply stops matching and the
// instruction executes normally), but nothing guards the buffered result
// itself — a reused result skips execution entirely, so a corrupted result
// field reaches architectural state and is only caught by the commit-time
// oracle. VP, by contrast, verifies every predicted value against the
// actual execution, so no VPT field is unguarded.
type CorruptTarget int

const (
	// CorruptResult flips bits in the buffered result: UNGUARDED. If the
	// entry later passes the reuse test, the wrong value retires.
	CorruptResult CorruptTarget = iota
	// CorruptOperandValue flips bits in a stored operand value: guarded by
	// the reuse test's value comparison (the entry stops matching).
	CorruptOperandValue
	// CorruptOperandName renames a stored source register: guarded — the
	// test still compares the stored operand value against the consuming
	// instruction's actual operand, so at worst the entry stops matching.
	CorruptOperandName
	// CorruptDepPointer redirects a dependence pointer: guarded by the
	// generation check (a stale link never revalidates).
	CorruptDepPointer
)

func (t CorruptTarget) String() string {
	switch t {
	case CorruptOperandValue:
		return "operand-value"
	case CorruptOperandName:
		return "operand-name"
	case CorruptDepPointer:
		return "dependence-pointer"
	}
	return "result"
}

// Corrupt applies one fault of the given target to a valid entry chosen by
// r; ok is false when no suitable entry exists. Control-transfer entries
// are skipped by CorruptResult (their buffered "result" is direction/target
// bookkeeping whose corruption strands fetch on a garbage path — that
// failure mode is the watchdog's, not the oracle's, and campaigns want the
// deterministic oracle-detection outcome).
func (b *Buffer) Corrupt(target CorruptTarget, r *rand.Rand) (desc string, ok bool) {
	victim := -1
	seen := 0
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid {
			continue
		}
		if target == CorruptResult && (e.op.IsControl() || e.isMem && !e.isLoad) {
			continue // control bookkeeping / address-only store entries
		}
		if target == CorruptOperandName && e.src1Name == isa.NoReg && e.src2Name == isa.NoReg {
			continue
		}
		seen++
		if r.Intn(seen) == 0 {
			victim = i
		}
	}
	if victim < 0 {
		return "", false
	}
	e := &b.entries[victim]
	switch target {
	case CorruptResult:
		mask := isa.Word(r.Uint32() | 1)
		e.result ^= mask
		return fmt.Sprintf("rb[%d] pc=%#x result^=%#x", victim, e.tag, uint32(mask)), true
	case CorruptOperandValue:
		mask := isa.Word(r.Uint32() | 1)
		if e.src1Name != isa.NoReg || e.src2Name == isa.NoReg {
			e.src1Val ^= mask
		} else {
			e.src2Val ^= mask
		}
		return fmt.Sprintf("rb[%d] pc=%#x operand^=%#x", victim, e.tag, uint32(mask)), true
	case CorruptOperandName:
		// Rotate to a different *architectural* register; never to NoReg,
		// which would erase the operand guard rather than perturb it.
		slot := &e.src1Name
		if e.src1Name == isa.NoReg {
			slot = &e.src2Name
		}
		nr := isa.Reg((int(*slot) + 1 + r.Intn(int(isa.NumArchRegs)-2)) % int(isa.NumArchRegs))
		old := *slot
		*slot = nr
		return fmt.Sprintf("rb[%d] pc=%#x opname %v->%v", victim, e.tag, old, nr), true
	default: // CorruptDepPointer
		l := Link{Idx: int32(r.Intn(len(b.entries))), Gen: r.Uint32()}
		if e.src1Link.Idx >= 0 || e.src2Link.Idx < 0 {
			e.src1Link = l
		} else {
			e.src2Link = l
		}
		return fmt.Sprintf("rb[%d] pc=%#x deplink->{%d,%d}", victim, e.tag, l.Idx, l.Gen), true
	}
}

// CorruptAllResults corrupts the buffered result of every valid
// value-producing entry (same skip rules as Corrupt/CorruptResult) and
// returns how many entries were hit. Campaigns use the burst form so that
// at least one corrupted entry is consumed by a later reuse test before
// being refreshed or evicted, making the oracle-detection outcome
// deterministic rather than probabilistic.
func (b *Buffer) CorruptAllResults(r *rand.Rand) int {
	n := 0
	for i := range b.entries {
		e := &b.entries[i]
		if !e.valid || e.op.IsControl() || e.isMem && !e.isLoad {
			continue
		}
		e.result ^= isa.Word(r.Uint32() | 1)
		n++
	}
	return n
}

// Instances returns how many instances are buffered for pc; for tests.
func (b *Buffer) Instances(pc uint32) int {
	base := b.setBase(pc)
	n := 0
	for w := 0; w < b.ways; w++ {
		e := &b.entries[base+int32(w)]
		if e.valid && e.tag == pc {
			n++
		}
	}
	return n
}

// SnapEntry is the exported logical state of one RB entry. The intrusive
// load-index node fields are deliberately absent: they are a pure function
// of the logical state and are rebuilt deterministically on restore, which
// is what makes serialize→restore→serialize byte-identical.
type SnapEntry struct {
	Valid              bool
	Tag                uint32
	Gen                uint32
	Tick               uint64
	Op                 isa.Op
	Result             isa.Word
	Src1Name, Src2Name isa.Reg
	Src1Val, Src2Val   isa.Word
	Src1Link, Src2Link Link
	IsMem, IsLoad      bool
	Addr               uint32
	Width              uint32
	MemValid           bool
	WrongPath          bool
}

// Snapshot is the complete warm state of a Buffer, entries in set-major
// order. Statistics are not captured: a restored buffer counts from zero.
type Snapshot struct {
	Cfg     Config
	Tick    uint64
	Entries []SnapEntry
}

// Snapshot captures the buffer's warm state.
func (b *Buffer) Snapshot() *Snapshot {
	s := &Snapshot{Cfg: b.cfg, Tick: b.tick, Entries: make([]SnapEntry, len(b.entries))}
	for i := range b.entries {
		e := &b.entries[i]
		s.Entries[i] = SnapEntry{
			Valid: e.valid, Tag: e.tag, Gen: e.gen, Tick: e.tick,
			Op: e.op, Result: e.result,
			Src1Name: e.src1Name, Src2Name: e.src2Name,
			Src1Val: e.src1Val, Src2Val: e.src2Val,
			Src1Link: e.src1Link, Src2Link: e.src2Link,
			IsMem: e.isMem, IsLoad: e.isLoad,
			Addr: e.addr, Width: e.width,
			MemValid: e.memValid, WrongPath: e.wrongPath,
		}
	}
	return s
}

// RestoreSnapshot rewinds the buffer to a captured warm state (geometry
// must match). The intrusive load index is rebuilt from the restored
// entries in ascending entry order; statistics are zeroed.
func (b *Buffer) RestoreSnapshot(s *Snapshot) error {
	if s.Cfg != b.cfg || len(s.Entries) != len(b.entries) {
		return fmt.Errorf("reuse: snapshot geometry mismatch (snapshot %+v/%d entries, buffer %+v/%d)",
			s.Cfg, len(s.Entries), b.cfg, len(b.entries))
	}
	for i := range b.heads {
		b.heads[i] = -1
	}
	for i := range b.entries {
		se := &s.Entries[i]
		b.tags[i] = noTag
		if se.Valid {
			b.tags[i] = se.Tag
		}
		b.entries[i] = entry{
			valid: se.Valid, tag: se.Tag, gen: se.Gen, tick: se.Tick,
			op: se.Op, result: se.Result,
			src1Name: se.Src1Name, src2Name: se.Src2Name,
			src1Val: se.Src1Val, src2Val: se.Src2Val,
			src1Link: se.Src1Link, src2Link: se.Src2Link,
			isMem: se.IsMem, isLoad: se.IsLoad,
			addr: se.Addr, width: se.Width,
			memValid: se.MemValid, wrongPath: se.WrongPath,
		}
	}
	for i := range b.entries {
		b.indexLoad(int32(i), &b.entries[i])
	}
	b.tick = s.Tick
	b.stats = Stats{}
	return nil
}

// Reset clears the buffer and statistics for a new run. Storage is reused
// in place when the geometry matches cfg — the steady state of machine
// reuse, with zero allocations — and rebuilt only on a geometry change.
// Generation counters survive an in-place reset so dependence pointers
// captured before the reset can never revalidate against post-reset
// contents.
func (b *Buffer) Reset(cfg Config) {
	if cfg != b.cfg || b.heads == nil {
		*b = *New(cfg)
		return
	}
	for i := range b.entries {
		b.entries[i] = entry{gen: b.entries[i].gen}
		b.tags[i] = noTag
	}
	for i := range b.heads {
		b.heads[i] = -1
	}
	b.tick = 0
	b.stats = Stats{}
}
