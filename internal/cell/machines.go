package cell

import (
	"context"
	"fmt"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// machineCap bounds how many reusable machines one worker keeps. A machine
// holds its predictor, cache, VPT and reuse-buffer tables and two sparse
// memory images (the timing core's and its functional emulator's): 0.2 MB
// for base up to 2.5 MB for the hybrid techniques, measured after running
// each kernel at scale 1 to halt. An unbounded set would still grow with
// every distinct (bench, scale, max_insts) a long-lived server worker ever
// saw; the cap holds a worker to about 20 MB and still fits one plain
// machine per paper benchmark plus a sampled one. Past it an arbitrary
// machine is dropped and rebuilt on next use.
const machineCap = 8

// slot names one reusable machine: the program it was built for (the
// configuration is excluded — Reset and ResetTo move a machine to any
// configuration) and whether it is plain or restored. The two populations
// never mix: Reset keeps a plain machine's emulator, ResetTo replaces it
// with an interval trace.
type slot struct {
	bench    string
	scale    int
	maxInsts uint64
	restored bool
}

// Machines is one worker's set of reusable machines. It is not safe for
// concurrent use: every worker owns its own set, so runs need no locking,
// and Machine.Reset's determinism contract makes a reused machine's results
// bit-identical to a fresh one's, whichever worker ran what before.
type Machines struct {
	m map[slot]*core.Machine
}

// NewMachines returns an empty set.
func NewMachines() *Machines { return &Machines{m: make(map[slot]*core.Machine)} }

// Plain runs fn on a machine for id's program rewound to id.Cfg: the
// set's machine after Reset, or one built from the loaded workload on first
// use. A panic in fn (or in the machine) drops that machine — its state is
// unknown mid-update, and the Reset contract only covers runs that returned
// — and comes back as an error.
func (s *Machines) Plain(id ID, fn func(*core.Machine) error) error {
	return s.with(id, false, func(m *core.Machine) (*core.Machine, error) {
		if m != nil {
			return m, m.Reset(id.Cfg)
		}
		w, err := workload.Get(id.Bench)
		if err != nil {
			return nil, err
		}
		p, err := w.Load(id.Scale)
		if err != nil {
			return nil, err
		}
		return core.New(p, id.Cfg, id.MaxInsts)
	}, fn)
}

// Restored is Plain for a sampled interval: fn runs on a machine of p placed
// on checkpoint ck under id.Cfg, serving the n-instruction interval oracle
// re-derived from ck — the set's restored machine moved with ResetTo, or
// one built with NewRestored on first use.
func (s *Machines) Restored(id ID, p *prog.Program, ck *sample.Checkpoint, n uint64, fn func(*core.Machine) error) error {
	return s.with(id, true, func(m *core.Machine) (*core.Machine, error) {
		oracle, err := sample.IntervalOracle(p, ck, n)
		if err != nil {
			return nil, err
		}
		if m != nil {
			return m, m.ResetTo(id.Cfg, ck.State, oracle)
		}
		return core.NewRestored(p, id.Cfg, ck.State, oracle)
	}, fn)
}

// with gets the slot's machine ready through prepare (nil when the set has
// none yet), keeps a newly built one within the cap, and runs fn on it.
func (s *Machines) with(id ID, restored bool, prepare func(*core.Machine) (*core.Machine, error), fn func(*core.Machine) error) (err error) {
	k := slot{id.Bench, id.Scale, id.MaxInsts, restored}
	defer func() {
		if p := recover(); p != nil {
			delete(s.m, k)
			err = fmt.Errorf("cell: panic simulating %s under %s: %v", id.Bench, id.Cfg.Name(), p)
		}
	}()
	old := s.m[k]
	m, err := prepare(old)
	if err != nil {
		return err
	}
	if m != old {
		if len(s.m) >= machineCap {
			for victim := range s.m {
				delete(s.m, victim)
				break
			}
		}
		s.m[k] = m
	}
	return fn(m)
}

// Drive runs m to its halt in bounded cycle slices so ctx's deadline and
// cancellation are observed; the machine's own watchdog separately bounds
// no-progress livelock in simulated time. Slicing is invisible in the
// results: Run resumes exactly where the previous slice stopped.
func Drive(ctx context.Context, m *core.Machine) error {
	const slice = 200_000 // cycles between context checks
	for !m.Halted() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cell: %s at cycle %d: %w", m.Config().Name(), m.Cycle(), err)
		}
		if err := m.Run(slice); err != nil {
			return err
		}
	}
	return nil
}
