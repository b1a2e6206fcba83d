package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
)

// poolJob is one /v1/run or /v1/trace simulation queued for a pool worker.
type poolJob struct {
	ctx   context.Context
	id    cell.ID
	trace *traceParams // non-nil for /v1/trace: capture obs + pipetrace
	reply chan poolResult
}

// traceParams are the capture bounds of one traced run: the pipetrace
// ring window (last N instructions), the interval sampler period, and the
// event ring capacity. All three are clamped by the handler before they
// reach the pool.
type traceParams struct {
	window   int
	interval uint64
	events   int
}

// poolResult carries everything a RunResponse needs: unlike the harness's
// SweepResult it includes the architectural Output/ExitCode, which the
// differential tests (and users validating runs) care about. Traced runs
// additionally carry the detached tracer and observer.
type poolResult struct {
	stats    core.Stats
	output   string
	exitCode int
	// skipped is the run's quiescence-skipped cycle count, kept beside
	// rather than inside stats (which must stay bit-identical whether or
	// not the skipper ran).
	skipped uint64
	tracer  *core.PipeTracer
	obs     *core.Observer
	err     error
}

// pool is the bounded worker pool behind POST /v1/run and /v1/trace; its
// worker count is the server's simulation admission bound. Each worker owns
// a private cell.Machines set it rewinds with Machine.Reset between requests
// (the same reuse model as the harness sweep engine), so steady-state
// traffic over a working set of benchmarks pays program assembly and
// machine construction only once per (worker, benchmark).
type pool struct {
	jobs chan *poolJob
	wg   sync.WaitGroup
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{jobs: make(chan *poolJob)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			machines := cell.NewMachines()
			for j := range p.jobs {
				j.reply <- runJob(j, machines)
			}
		}()
	}
	return p
}

// run submits one simulation and waits for its result. Submission respects
// the job's context: a caller whose deadline passes while every worker is
// busy gets the context error instead of queueing forever.
func (p *pool) run(ctx context.Context, id cell.ID) poolResult {
	return p.submit(&poolJob{ctx: ctx, id: id, reply: make(chan poolResult, 1)})
}

// trace submits one observed simulation: the same pooled, machine-reusing
// path as run, with a pipetrace ring and an interval-sampling observer
// attached for the duration of the run.
func (p *pool) trace(ctx context.Context, id cell.ID, tp traceParams) poolResult {
	return p.submit(&poolJob{ctx: ctx, id: id, trace: &tp, reply: make(chan poolResult, 1)})
}

func (p *pool) submit(j *poolJob) poolResult {
	select {
	case p.jobs <- j:
		return <-j.reply
	case <-j.ctx.Done():
		return poolResult{err: fmt.Errorf("server: queue wait: %w", j.ctx.Err())}
	}
}

// close drains the pool: no new jobs are accepted and the call returns
// once every worker has exited. The Server only calls it after the last
// in-flight request finished.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// runJob performs one simulation on the worker's machine for the job's
// program (see cell.Machines for reuse and panic recovery).
func runJob(j *poolJob, machines *cell.Machines) (res poolResult) {
	err := machines.Plain(j.id, func(m *core.Machine) error {
		if j.trace != nil {
			res.tracer = &core.PipeTracer{Max: j.trace.window, Ring: true}
			res.obs = core.NewObserver(j.trace.interval, j.trace.events)
			m.Trace(res.tracer)
			m.AttachObserver(res.obs)
			// Detach on every exit path (including errors) so the machine
			// the worker keeps for the next request never samples into a
			// dead observer; a panic drops the machine entirely.
			defer func() {
				m.Trace(nil)
				m.AttachObserver(nil)
			}()
		}
		if err := cell.Drive(j.ctx, m); err != nil {
			return err
		}
		res.stats, res.output, res.exitCode = m.Stats(), m.Output(), m.ExitCode()
		res.skipped = m.CyclesSkipped()
		return nil
	})
	if err != nil {
		return poolResult{err: err}
	}
	return res
}
