// Package mem provides the simulator's memory system: a sparse byte-
// addressable main memory shared by the functional emulator and the timing
// core, and a set-associative cache timing model configured per Table 1 of
// the paper (64 KB, 2-way, 32-byte lines, 6-cycle miss latency).
package mem

import (
	"github.com/vpir-sim/vpir/internal/prog"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// PageSize is the sparse-memory page granularity in bytes; dirty-page
// checkpoints (internal/sample) are taken and restored at this granularity.
const PageSize = pageSize

// PageImage is the contents of one page, identified by its page number
// (address >> 12). Checkpoints hold the dirty pages of a memory as a slice
// of these.
type PageImage struct {
	PN   uint32
	Data [PageSize]byte
}

// Memory is a sparse, paged, little-endian main memory. The zero value is
// ready to use. Reads of unmapped addresses return zero; writes allocate.
//
// Every page that has ever been written since the last Reset is tracked as
// dirty; DirtyPages enumerates them so a checkpoint can capture exactly the
// state a restore must reproduce (reads of never-written pages return zero
// on both sides by construction).
type Memory struct {
	pages map[uint32]*[pageSize]byte
	dirty map[uint32]struct{}
	// One-entry translation cache: accesses cluster heavily within a page,
	// and the map lookup otherwise dominates the cost of a load or store.
	// lastDirty mirrors dirty-set membership for the cached page so the
	// store fast path skips the map insert after the first write.
	lastPN    uint32
	lastPage  *[pageSize]byte
	lastDirty bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{
		pages: make(map[uint32]*[pageSize]byte),
		dirty: make(map[uint32]struct{}),
	}
}

func (m *Memory) page(addr uint32, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	if p := m.lastPage; p != nil && m.lastPN == pn {
		if alloc && !m.lastDirty {
			m.dirty[pn] = struct{}{}
			m.lastDirty = true
		}
		return p
	}
	p := m.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	m.lastPN, m.lastPage = pn, p
	_, m.lastDirty = m.dirty[pn]
	if alloc && !m.lastDirty {
		m.dirty[pn] = struct{}{}
		m.lastDirty = true
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// LoadHalf returns the little-endian 16-bit value at addr.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf stores the little-endian 16-bit value v at addr.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// LoadWord returns the little-endian 32-bit value at addr. Word accesses
// within one page take the fast path.
func (m *Memory) LoadWord(addr uint32) uint32 {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		o := addr & pageMask
		return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
	}
	return uint32(m.LoadHalf(addr)) | uint32(m.LoadHalf(addr+2))<<16
}

// StoreWord stores the little-endian 32-bit value v at addr.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, true)
		o := addr & pageMask
		p[o], p[o+1], p[o+2], p[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return
	}
	m.StoreHalf(addr, uint16(v))
	m.StoreHalf(addr+2, uint16(v>>16))
}

// LoadProgram maps a program image: text at prog.TextBase (so that the
// emulator's data path and any self-referential loads see real bytes) and
// static data at prog.DataBase.
func (m *Memory) LoadProgram(p *prog.Program) {
	for i, w := range p.Text {
		m.StoreWord(prog.TextBase+uint32(4*i), w)
	}
	for i, b := range p.Data {
		m.StoreByte(prog.DataBase+uint32(i), b)
	}
}

// Reset zeroes every mapped page while keeping the page storage allocated.
// A reset memory is indistinguishable from a fresh one (reads of unmapped
// addresses return zero either way), so Machine.Reset can reuse the page
// set a previous run faulted in instead of reallocating it. The dirty set
// is cleared with it: a reset memory has, by definition, never been written.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = [pageSize]byte{}
	}
	// clear, unlike deleting key by key, leaves no tombstones that the
	// next run's inserts could rehash (and allocate) around.
	clear(m.dirty)
	m.lastDirty = false
}

// DirtyPageCount returns how many pages have been written since the last
// Reset.
func (m *Memory) DirtyPageCount() int { return len(m.dirty) }

// DirtyPages calls fn for every page written since the last Reset, in
// ascending page-number order, stopping early if fn returns false. The data
// pointer aliases live memory — callers that keep the contents must copy.
func (m *Memory) DirtyPages(fn func(pn uint32, data *[PageSize]byte) bool) {
	for _, pn := range sortedPNs(m.dirty) {
		if !fn(pn, m.pages[pn]) {
			return
		}
	}
}

// ApplyPage overwrites one whole page with img's contents, allocating the
// page if needed and marking it dirty; restoring a checkpoint is a Reset
// followed by ApplyPage for every captured page.
func (m *Memory) ApplyPage(img *PageImage) {
	pn := img.PN
	p := m.pages[pn]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	*p = img.Data
	m.dirty[pn] = struct{}{}
	if m.lastPage != nil && m.lastPN == pn {
		m.lastDirty = true
	}
}

// sortedPNs returns the keys of a page-number set in ascending order.
func sortedPNs[V any](pages map[uint32]V) []uint32 {
	pns := make([]uint32, 0, len(pages))
	for pn := range pages {
		pns = append(pns, pn)
	}
	for i := 1; i < len(pns); i++ { // insertion sort; page count is small
		for j := i; j > 0 && pns[j] < pns[j-1]; j-- {
			pns[j], pns[j-1] = pns[j-1], pns[j]
		}
	}
	return pns
}

// Checksum returns a FNV-1a hash over all mapped pages; used by golden tests
// to compare architectural memory state between the emulator and the timing
// core.
func (m *Memory) Checksum() uint64 {
	// Hash pages in address order for determinism.
	pns := sortedPNs(m.pages)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, pn := range pns {
		h ^= uint64(pn)
		h *= prime64
		for _, b := range m.pages[pn] {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}
