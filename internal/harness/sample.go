package harness

import (
	"context"
	"fmt"
	"sync"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// ffEntry is one fast-forward pass, computed once per (bench, scale, cap,
// cfg, plan) under singleflight: every interval cell of the same plan shares
// the checkpoints, and a worker that loses the race blocks on the winner
// instead of redoing the functional run.
type ffEntry struct {
	once sync.Once
	prog *prog.Program
	ff   *sample.FFResult
	err  error
}

// fastForward returns the cached fast-forward pass for the sampled cell's
// plan, running it on first use. The program image is loaded once alongside
// and shared — it is read-only after assembly, and both interval oracles and
// restored machines only ever copy from it. A panic in the pass becomes
// every waiter's error.
func (r *Runner) fastForward(id cell.ID) (*prog.Program, *sample.FFResult, error) {
	plan := id.Sample.Plan
	id.Sample = &cell.Sample{Plan: plan, Index: cell.WholeProgram}
	key := id.Key()
	r.mu.Lock()
	if r.ff == nil {
		r.ff = make(map[string]*ffEntry)
	}
	e, ok := r.ff[key]
	if !ok {
		e = &ffEntry{}
		r.ff[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if p := recover(); p != nil {
				e.err = fmt.Errorf("harness: panic fast-forwarding %s under %s: %v", id.Bench, id.Cfg.Name(), p)
			}
		}()
		w, err := workload.Get(id.Bench)
		if err != nil {
			e.err = err
			return
		}
		p, err := w.Load(id.Scale)
		if err != nil {
			e.err = err
			return
		}
		e.prog = p
		e.ff, e.err = sample.FastForward(p, id.Cfg, plan, id.MaxInsts)
	})
	return e.prog, e.ff, e.err
}

// runInterval drives interval k on the worker's restored machine for the
// cell's program.
func (r *Runner) runInterval(ctx context.Context, id cell.ID, p *prog.Program, ff *sample.FFResult, k int, machines *cell.Machines) (iv sample.IntervalResult, err error) {
	ck, warm, measured, err := ff.IntervalSpec(k)
	if err != nil {
		return iv, err
	}
	err = machines.Restored(id, p, ck, warm+measured, func(m *core.Machine) error {
		iv, err = sample.DriveInterval(ctx, m, ck, warm)
		return err
	})
	return iv, err
}

// attemptWholeSampled runs the entire sampled plan inside one cell: every
// interval in index order on the worker's restored machine, then the stitch.
// This is the transparent-sampling path (Runner.Sample) where parallelism
// comes from the grid's other cells; RunSampled instead fans the intervals
// out as their own cells.
func (r *Runner) attemptWholeSampled(ctx context.Context, id cell.ID, p *prog.Program, ff *sample.FFResult, machines *cell.Machines) (cellOutcome, error) {
	ivs := make([]sample.IntervalResult, len(ff.Checkpoints))
	for k := range ff.Checkpoints {
		iv, err := r.runInterval(ctx, id, p, ff, k, machines)
		if err != nil {
			return cellOutcome{}, fmt.Errorf("harness: %s interval %d: %w", id.Bench, k, err)
		}
		ivs[k] = iv
	}
	sum, err := sample.Stitch(ff, ivs)
	if err != nil {
		return cellOutcome{}, err
	}
	return cellOutcome{stats: sum.Stats, summary: sum}, nil
}

// RunSampled executes one (benchmark, configuration) under the plan with the
// checkpoints as the unit of parallelism: one fast-forward pass, then every
// interval fans out across Sweep's worker pool as its own cell, and the
// results are stitched in index order — a deterministic merge no matter how
// the intervals were scheduled. Per-interval results are cached like any
// other cell, so a re-run after a partial failure only simulates the missing
// intervals.
func (r *Runner) RunSampled(ctx context.Context, bench string, cfg core.Config, plan sample.Plan) (*sample.Summary, error) {
	plan = plan.Normalize()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	whole := SweepCell{Bench: bench, Cfg: cfg, Sample: &cell.Sample{Plan: plan, Index: cell.WholeProgram}}
	_, ff, err := r.fastForward(r.cellID(whole))
	if err != nil {
		return nil, err
	}
	cells := make([]SweepCell, len(ff.Checkpoints))
	for k := range cells {
		cells[k] = SweepCell{Bench: bench, Cfg: cfg, Sample: &cell.Sample{Plan: plan, Index: k}}
	}
	results := r.Sweep(ctx, cells)
	ivs := make([]sample.IntervalResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("harness: %s interval %d: %w", bench, i, res.Err)
		}
		if res.Interval == nil {
			return nil, fmt.Errorf("harness: %s interval %d returned no result", bench, i)
		}
		ivs[i] = *res.Interval
	}
	return sample.Stitch(ff, ivs)
}
