package harness

import (
	"context"
	"runtime"
	"sync"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
)

// SweepCell names one simulation in a sweep: a (benchmark, configuration)
// pair, optionally narrowed to one sampled interval (or widened to a whole
// sampled plan) by Sample.
type SweepCell struct {
	Bench string
	Cfg   core.Config
	// Sample, when non-nil, makes this a sampled cell: Index ≥ 0 simulates
	// one interval of the plan (the unit of parallel fan-out), Index ==
	// cell.WholeProgram runs the full plan serially inside the cell. Nil
	// cells are plain full-program simulations — unless Runner.Sample is
	// set, which samples them transparently.
	Sample *cell.Sample
}

// SweepResult is the outcome of one cell. Exactly one of Stats/Err is
// meaningful: Err is nil on success, and a cell skipped because the sweep's
// context was already cancelled carries that context error.
type SweepResult struct {
	Bench string
	Cfg   core.Config
	Stats core.Stats
	// Interval carries the per-interval measurement for sampled interval
	// cells (Sample.Index ≥ 0); nil otherwise.
	Interval *sample.IntervalResult
	// Summary carries the stitched summary of a whole-plan sampled cell
	// (Sample.Index == cell.WholeProgram, or a plain cell under Runner.Sample);
	// nil otherwise.
	Summary *sample.Summary
	// Attempts records which attempt produced this result: 0 for a cache
	// hit, 1 for a first-try success, n > 1 when n−1 transient failures were
	// retried. It makes hedged/retried interval cells auditable — a stitched
	// summary can report exactly which intervals needed retries.
	Attempts int
	Err      error
}

// Grid builds the cross product of benchmarks and configurations in
// bench-major order (every configuration of one benchmark is adjacent, the
// order experiment tables want).
func Grid(benches []string, cfgs []core.Config) []SweepCell {
	cells := make([]SweepCell, 0, len(benches)*len(cfgs))
	for _, b := range benches {
		for _, cfg := range cfgs {
			cells = append(cells, SweepCell{Bench: b, Cfg: cfg})
		}
	}
	return cells
}

// workers resolves the sweep worker count: Parallelism, defaulting to
// GOMAXPROCS. Parallelism 1 is strictly serial, in cell order.
func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep simulates every cell on a pool of workers and returns the results
// indexed exactly like cells — the result order is deterministic no matter
// how the work was scheduled. Each worker owns a private cell.Machines set,
// one machine per benchmark, that it rewinds with Machine.Reset between
// configurations instead of building a new one; Machine.Reset's
// determinism contract is what makes the parallel sweep bit-identical to a
// serial one.
//
// Cancelling ctx stops the sweep promptly: cells not yet started complete
// with ctx's error, cells in flight observe the cancellation at their next
// deadline check. Per-cell failures never abort the sweep — callers decide
// what to do with partial results.
func (r *Runner) Sweep(ctx context.Context, cells []SweepCell) []SweepResult {
	results := make([]SweepResult, len(cells))
	n := r.workers()
	if n > len(cells) {
		n = len(cells)
	}
	if n < 1 {
		n = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// machines is worker-private (no locking) and lives for the
			// whole sweep, so a benchmark's machine is rebuilt at most once
			// per worker regardless of how many configurations it runs.
			machines := cell.NewMachines()
			for i := range jobs {
				c := cells[i]
				res := SweepResult{Bench: c.Bench, Cfg: c.Cfg}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					var out cellOutcome
					out, res.Attempts, res.Err = r.runCell(ctx, c, machines)
					res.Stats, res.Interval, res.Summary = out.stats, out.interval, out.summary
				}
				results[i] = res
				if r.OnResult != nil {
					r.OnResult(i, res)
				}
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// cellOutcome is everything a cell can produce: the stats every cell has,
// plus the per-interval measurement of a sampled interval cell or the
// stitched summary of a whole-sampled cell.
type cellOutcome struct {
	stats    core.Stats
	interval *sample.IntervalResult
	summary  *sample.Summary
}

// cellID is the full identity of a cell under this Runner. A plain cell
// under a sampling Runner becomes a whole-plan sampled cell (transparent
// sampling).
func (r *Runner) cellID(c SweepCell) cell.ID {
	spec := c.Sample
	if spec == nil && r.Sample != nil {
		spec = &cell.Sample{Plan: *r.Sample, Index: cell.WholeProgram}
	}
	return cell.ID{Bench: c.Bench, Scale: r.Scale, MaxInsts: r.MaxInsts, Cfg: c.Cfg, Sample: spec}
}

// runCell is the cached, retrying simulation shared by Run, RunSampled and
// Sweep. The returned attempt count is 0 for a cache hit and otherwise the
// 1-based attempt that produced the result.
func (r *Runner) runCell(ctx context.Context, c SweepCell, machines *cell.Machines) (cellOutcome, int, error) {
	id := r.cellID(c)
	key := id.Key()
	r.mu.Lock()
	if out, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return out, 0, nil
	}
	r.mu.Unlock()

	attempts := 1
	out, err := r.attemptCell(ctx, id, machines)
	for err != nil && IsTransient(err) && attempts <= r.Retries {
		attempts++
		out, err = r.attemptCell(ctx, id, machines)
	}
	if err != nil {
		return cellOutcome{}, attempts, err
	}
	r.mu.Lock()
	r.cache[key] = out
	r.mu.Unlock()
	return out, attempts, nil
}

// attemptCell dispatches one attempt to the cell's simulation mode. The
// Runner's Timeout bounds the detailed simulation; a sampled cell's shared
// fast-forward pass runs before the clock starts.
func (r *Runner) attemptCell(ctx context.Context, id cell.ID, machines *cell.Machines) (cellOutcome, error) {
	var p *prog.Program
	var ff *sample.FFResult
	if id.Sample != nil {
		var err error
		if p, ff, err = r.fastForward(id); err != nil {
			return cellOutcome{}, err
		}
	}
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	switch {
	case id.Sample == nil:
		s, err := r.attempt(ctx, id, machines)
		return cellOutcome{stats: s}, err
	case id.Sample.Index == cell.WholeProgram:
		return r.attemptWholeSampled(ctx, id, p, ff, machines)
	default:
		iv, err := r.runInterval(ctx, id, p, ff, id.Sample.Index, machines)
		return cellOutcome{stats: iv.Stats, interval: &iv}, err
	}
}

// attempt performs one full-program simulation on the worker's machine for
// the cell's program (see cell.Machines for reuse and panic recovery).
func (r *Runner) attempt(ctx context.Context, id cell.ID, machines *cell.Machines) (s core.Stats, err error) {
	err = machines.Plain(id, func(m *core.Machine) error {
		if r.runHook != nil {
			var err error
			s, err = r.runHook(id.Bench, id.Cfg)
			return err
		}
		var obs *core.Observer
		if r.Obs != nil {
			obs = core.NewObserver(r.Obs.Interval, r.Obs.EventCap)
			m.AttachObserver(obs)
		}
		if err := cell.Drive(ctx, m); err != nil {
			return err
		}
		if r.Obs != nil {
			if err := r.Obs.export(id.Bench, id.Cfg, obs); err != nil {
				return err
			}
		}
		s = m.Stats()
		return nil
	})
	return s, err
}
