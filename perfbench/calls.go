package main

import (
	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/workload"
)

// The calls into the repository's layers that more than one workload makes,
// each under its span.

// load assembles a workload's program. workload.Load memoizes programs for
// the life of the process, and the core's oracle cache is keyed by program,
// so load assembles the workload's source itself (what Load does on its
// first call): every set-up pays the assembly and every program is new.
func load(tr *tracer, name string, scale int) (*prog.Program, error) {
	sp := tr.start("workload.load", 0, 0)
	defer tr.end(sp)
	wl, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(name+".s", wl.Source(scale))
}

// newMachine is core.New with a core.new span recording its allocation.
func newMachine(tr *tracer, parent int, p *prog.Program, cfg core.Config) (*core.Machine, error) {
	var before uint64
	if tr != nil {
		before = totalAlloc()
	}
	sp := tr.start("core.new", parent, 0)
	m, err := core.New(p, cfg, 0)
	tr.endWith(sp, func(s *span) { s.Bytes = totalAlloc() - before })
	return m, err
}

// runMachine runs m to its halt under one core.run span.
func runMachine(tr *tracer, parent int, m *core.Machine, tech string) (core.Stats, error) {
	sp := tr.start("core.run", parent, 0)
	var err error
	for !m.Halted() && err == nil {
		err = m.Run(1 << 20)
	}
	s := m.Stats()
	tr.endWith(sp, func(sp *span) {
		sp.Tag, sp.Insts, sp.Cycles, sp.Skipped = tech, s.Committed, s.Cycles, m.CyclesSkipped()
	})
	return s, err
}
