package harness

import (
	"context"
	"fmt"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// fastForwarded is one fast-forward pass and the program it ran on.
type fastForwarded struct {
	prog *prog.Program
	ff   *sample.FFResult
}

// fastForward returns the fast-forward pass for the sampled cell's plan,
// running it once per (bench, scale, cap, cfg, plan): every interval cell
// of the same plan shares the checkpoints, and a worker that asks while the
// pass runs waits for it instead of redoing the functional run. The program
// image is loaded once alongside and shared — it is read-only after
// assembly, and both interval oracles and restored machines only ever copy
// from it. A panic in the pass becomes every waiter's error.
func (r *Runner) fastForward(ctx context.Context, id cell.ID) (*prog.Program, *sample.FFResult, error) {
	plan := id.Sample.Plan
	id.Sample = &cell.Sample{Plan: plan, Index: cell.WholeProgram}
	f, _, err := r.ff.Do(ctx, id.Key(), func(context.Context) (fastForwarded, error) {
		w, err := workload.Get(id.Bench)
		if err != nil {
			return fastForwarded{}, err
		}
		p, err := w.Load(id.Scale)
		if err != nil {
			return fastForwarded{}, err
		}
		ff, err := sample.FastForward(p, id.Cfg, plan, id.MaxInsts)
		return fastForwarded{p, ff}, err
	})
	return f.prog, f.ff, err
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
	_, ff, err := r.fastForward(ctx, r.cellID(whole))
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
