package sample

import (
	"github.com/vpir-sim/vpir/internal/bpred"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
)

// warmer maintains functionally-warmed microarchitectural structures during
// fast-forward. It observes the retired (and therefore correct-path)
// instruction stream and applies exactly the non-speculative updates the
// timing core applies at fetch and commit:
//
//   - I-cache: one access per line change, mirroring fetch's line tracking;
//   - gshare: UpdateDir with the pre-branch history, then the history shift —
//     on the correct path the speculative shift and the commit-time training
//     coincide;
//   - RAS/BTB: push on calls, pop on returns, BTB training on indirects;
//   - D-cache: one access per memory op;
//   - VPT/VPA: Train with the actual result/address (no prediction made,
//     so no confidence penalty);
//   - RB: Insert with the buffered-result encoding of reuse.Encode, the
//     one the timing core's issue stage uses, and InvalidateStores on every
//     store.
//
// The RB encoding is correctness-critical, not just fidelity: a reuse hit
// skips execution unguarded, so a warm entry whose result deviates from what
// the timing core would have buffered diverges the architectural state at
// commit. Sharing one encoder rules that out by construction.
type warmer struct {
	bp       *bpred.Predictor
	ic, dc   *mem.Cache
	vpt, vpa *vp.Table
	rb       *reuse.Buffer

	lineBytes uint32
	lastLine  uint32
}

// newWarmer builds the warm structures the configuration instantiates; a
// base-config warmer carries no VPT/RB, so fast-forward pays only for what
// the timing run will restore.
func newWarmer(cfg core.Config) *warmer {
	w := &warmer{
		bp:        bpred.New(cfg.Bpred),
		ic:        mem.NewCache(cfg.ICache),
		dc:        mem.NewCache(cfg.DCache),
		lineBytes: uint32(cfg.ICache.LineBytes),
		lastLine:  ^uint32(0),
	}
	if cfg.NeedsVPT() {
		w.vpt = vp.New(cfg.VP.ResultTable)
	}
	if cfg.NeedsVPA() {
		w.vpa = vp.New(cfg.VP.AddrTable)
	}
	if cfg.NeedsRB() {
		w.rb = reuse.New(cfg.IR.Buffer)
	}
	return w
}

// observe applies one retired instruction's warm updates; it is installed as
// the fast-forward CPU's TraceFn.
func (w *warmer) observe(t *emu.Trace) {
	pc, in := t.PC, t.Inst
	op := in.Op

	if line := pc / w.lineBytes; line != w.lastLine {
		w.ic.Access(pc)
		w.lastLine = line
	}

	switch {
	case op.IsCondBranch():
		hist := w.bp.Hist()
		w.bp.UpdateDir(pc, hist, t.Taken)
		w.bp.SpecUpdateHist(t.Taken)
	case op == isa.OpJAL:
		w.bp.PushRAS(pc + 4)
	case op == isa.OpJR:
		if in.Src1 == isa.RegRA {
			w.bp.PopRAS()
		}
		w.bp.UpdateBTB(pc, uint32(t.Src1Val))
	case op == isa.OpJALR:
		w.bp.UpdateBTB(pc, uint32(t.Src1Val))
		w.bp.PushRAS(pc + 4)
	}

	if op.IsMem() {
		w.dc.Access(t.Addr)
		if w.vpa != nil {
			w.vpa.Train(pc, isa.Word(t.Addr), 0, false)
		}
	}
	if w.vpt != nil && in.Dest != isa.NoReg && !op.IsControl() && !op.Serializes() {
		w.vpt.Train(pc, t.DestVal, 0, false)
	}

	if w.rb != nil {
		result, addr := reuse.Encode(op, t.Taken, t.Src1Val, t.DestVal, t.Addr)
		// Insert rejects serializing ops and OpJ itself; dependence links are
		// a timing-window notion and stay absent under functional warming.
		w.rb.Insert(pc, in, t.Src1Val, t.Src2Val, result, addr, reuse.NoLink, reuse.NoLink, false, false)
		if op.IsStore() {
			w.rb.InvalidateStores(t.Addr, emu.StoreWidth(op))
		}
	}
}

// snapshotInto captures the warm state into a checkpoint's restore record.
func (w *warmer) snapshotInto(st *core.RestoreState) {
	st.Bpred = w.bp.Snapshot()
	st.ICache = w.ic.Snapshot()
	st.DCache = w.dc.Snapshot()
	if w.vpt != nil {
		st.VPT = w.vpt.Snapshot()
	}
	if w.vpa != nil {
		st.VPA = w.vpa.Snapshot()
	}
	if w.rb != nil {
		st.RB = w.rb.Snapshot()
	}
}
