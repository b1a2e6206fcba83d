package core

import (
	"fmt"

	"github.com/vpir-sim/vpir/internal/bpred"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/isa"
	"github.com/vpir-sim/vpir/internal/mem"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/reuse"
	"github.com/vpir-sim/vpir/internal/vp"
)

// RestoreState is everything a sampling checkpoint restores onto a timing
// machine: the architectural state at an interval boundary (registers, PC,
// dirty memory pages) plus the functionally-warmed microarchitectural state
// accumulated during fast-forward. Any nil warm component is left in its
// cold post-Reset state, so a zero-warmup checkpoint restores to exactly
// the state New produces.
type RestoreState struct {
	PC   uint32
	Regs [isa.NumArchRegs]isa.Word
	// Pages are the dirty pages of the functional memory at the checkpoint.
	// Because LoadProgram writes the program image through the dirty-
	// tracking store path, these pages are a complete memory image: restore
	// is Reset + LoadProgram + ApplyPage over them.
	Pages []mem.PageImage

	Bpred  *bpred.Snapshot
	ICache *mem.CacheSnapshot
	DCache *mem.CacheSnapshot
	VPT    *vp.Snapshot
	VPA    *vp.Snapshot
	RB     *reuse.Snapshot
}

// ResetTo rewinds the machine onto a checkpoint: a Reset under cfg, but
// with the architectural state, memory image and warm predictor state taken
// from st and the correct-path oracle served from the interval's trace
// (typically re-collected functionally from the same checkpoint) instead of
// the machine's emulator, which is dropped. The machine then simulates the
// interval in detail and halts when the trace is exhausted, exactly as a
// full run halts at program end.
//
// The Reset determinism contract extends here: ResetTo with the same
// (cfg, st, oracle) produces bit-identical Stats on any machine built for
// the same program, no matter what it ran before.
func (m *Machine) ResetTo(cfg Config, st *RestoreState, oracle *emu.TraceLog) error {
	if oracle.Len() == 0 {
		return fmt.Errorf("core: empty interval oracle")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.reset(cfg)
	m.oracle.serve(oracle)
	return m.applyRestore(st)
}

// NewRestored builds a machine directly on a checkpoint. It has no
// emulator: the caller supplies the interval oracle.
func NewRestored(p *prog.Program, cfg Config, st *RestoreState, oracle *emu.TraceLog) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if oracle.Len() == 0 {
		return nil, fmt.Errorf("core: empty interval oracle")
	}
	m := &Machine{
		cfg:     cfg,
		prog:    p,
		decoded: p.Decoded(),
		mem:     mem.NewMemory(),
	}
	m.oracle.serve(oracle)
	m.buildStructures(cfg)
	m.resetRunState()
	if err := m.applyRestore(st); err != nil {
		return nil, err
	}
	return m, nil
}

// applyRestore overlays a checkpoint on a machine that resetRunState has
// just rewound. Architectural state is replaced wholesale; warm component
// snapshots are restored where the configuration instantiates the
// component and skipped where it does not (a base-config interval ignores
// a checkpoint's RB state rather than failing).
func (m *Machine) applyRestore(st *RestoreState) error {
	m.regs = st.Regs
	m.fetchPC = st.PC
	for i := range st.Pages {
		m.mem.ApplyPage(&st.Pages[i])
	}
	if st.Bpred != nil {
		if err := m.bp.RestoreSnapshot(st.Bpred); err != nil {
			return err
		}
	}
	if st.ICache != nil {
		if err := m.icache.RestoreSnapshot(st.ICache); err != nil {
			return err
		}
	}
	if st.DCache != nil {
		if err := m.dcache.RestoreSnapshot(st.DCache); err != nil {
			return err
		}
	}
	if st.VPT != nil && m.vpt != nil {
		if err := m.vpt.RestoreSnapshot(st.VPT); err != nil {
			return err
		}
	}
	if st.VPA != nil && m.vpa != nil {
		if err := m.vpa.RestoreSnapshot(st.VPA); err != nil {
			return err
		}
	}
	if st.RB != nil && m.rb != nil {
		if err := m.rb.RestoreSnapshot(st.RB); err != nil {
			return err
		}
	}
	return nil
}
