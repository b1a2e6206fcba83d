package main

import (
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/prog"
)

// longCell is one fresh-machine detailed run of a long program.
type longCell struct {
	bench string
	scale int
	cfg   core.Config
}

// longCells: gcc at scale 8, where core.New's whole-program oracle pre-run
// is a large share of the run and of peak memory, and the pointer chase at
// a 60-cycle D-cache miss, where most cycles are skipped as quiescent.
func longCells() []longCell {
	chase := core.DefaultConfig()
	chase.DCache.MissLatency = 60
	return []longCell{
		{"gcc", 8, core.DefaultConfig()},
		{"chase", 8, chase},
	}
}

// reference is a program's architectural result from the functional
// emulator, which the timing core must reproduce.
type reference struct {
	output   string
	exitCode int
	insts    uint64
}

func emulate(p *prog.Program) (reference, error) {
	cpu := emu.New(p)
	if _, err := cpu.Run(0); err != nil {
		return reference{}, err
	}
	return reference{cpu.Output.String(), cpu.ExitCode, cpu.InstCount}, nil
}

// long runs each cell on a machine built from a freshly assembled program,
// so every unit pays core.New's pre-run (the oracle cache is keyed by
// program). The cells run in a fixed order: the order changes how much
// memory the second cell finds already resident, so a seeded order would
// spread peak_rss_mb. The seed changes nothing.
type long struct {
	cells []longCell
	progs []*prog.Program
	refs  []reference
}

func (w *long) setup(tr *tracer) error {
	w.progs = w.progs[:0]
	for _, c := range w.cells {
		p, err := load(tr, c.bench, c.scale)
		if err != nil {
			return err
		}
		w.progs = append(w.progs, p)
	}
	return nil
}

func (w *long) prepare() error {
	w.refs = make([]reference, len(w.progs))
	for i, p := range w.progs {
		ref, err := emulate(p)
		if err != nil {
			return err
		}
		w.refs[i] = ref
	}
	return nil
}

func (w *long) unit(tr *tracer) unitResult {
	var u unitResult
	for i, c := range w.cells {
		u.attempted++
		p, err := load(tr, c.bench, c.scale)
		if err != nil {
			u.fail("%s: %v", c.bench, err)
			continue
		}
		m, err := newMachine(tr, 0, p, c.cfg)
		if err != nil {
			u.fail("%s: %v", c.bench, err)
			continue
		}
		s, err := runMachine(tr, 0, m, "base")
		if err != nil {
			u.fail("%s: %v", c.bench, err)
			continue
		}
		if ref := w.refs[i]; m.Output() != ref.output || m.ExitCode() != ref.exitCode || s.Committed != ref.insts {
			u.fail("%s: output, exit code or instruction count differs from the emulator", c.bench)
			continue
		}
		u.insts += s.Committed
		u.stats = append(u.stats, keyedStats{key: keyOf(c.bench, c.scale, 0, c.cfg), stats: s})
	}
	return u
}
