package main

import (
	"context"
	"reflect"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/sample"
)

// The paper-scale sampled run: gcc at scale 64 (about 65M instructions),
// one 100k-instruction interval in 20, 2k instructions of detailed warmup.
const (
	sampledBench   = "gcc"
	sampledScale   = 64
	sampledWorkers = 2
)

var sampledPlan = sample.Plan{Interval: 100_000, Every: 20, Warmup: 2_000}

// sampled runs checkpointed sampling through harness.Runner.RunSampled on a
// fresh Runner per unit. Traced units drive the same steps through the
// sample package's public functions instead (fast-forward, interval oracle,
// restore and drive, stitch), so each step gets its own span; their stitched
// summary must equal the untraced one. The plan is fixed, so the seed
// changes nothing.
type sampled struct {
	prog     *prog.Program
	ref      reference
	untraced *sample.Summary // last untraced summary, compared with traced ones
}

func (w *sampled) setup(tr *tracer) error {
	p, err := load(tr, sampledBench, sampledScale)
	w.prog = p
	return err
}

func (w *sampled) prepare() (err error) {
	w.ref, err = emulate(w.prog)
	return err
}

func (w *sampled) unit(tr *tracer) unitResult {
	u := unitResult{attempted: 1}
	cfg := core.DefaultConfig()
	var sum *sample.Summary
	var err error
	if tr == nil {
		r := harness.NewRunner()
		r.Scale = sampledScale
		r.Parallelism = sampledWorkers
		sum, err = r.RunSampled(context.Background(), sampledBench, cfg, sampledPlan)
	} else {
		sum, err = w.traced(tr, cfg, &u)
	}
	if err != nil {
		u.fail("sampled %s: %v", sampledBench, err)
		return u
	}
	if sum.TotalInsts != w.ref.insts || sum.ExitCode != w.ref.exitCode || !sum.Halted {
		u.fail("sampled %s: total instructions %d or exit code %d differ from the emulator's %d, %d",
			sampledBench, sum.TotalInsts, sum.ExitCode, w.ref.insts, w.ref.exitCode)
		return u
	}
	if tr == nil {
		w.untraced = sum
	} else if w.untraced != nil && !reflect.DeepEqual(sum, w.untraced) {
		u.fail("sampled %s: traced summary differs from the untraced one", sampledBench)
		return u
	}
	u.insts = sum.TotalInsts
	u.stats = append(u.stats, keyedStats{key: "sampled|" + sampledPlan.Key() + "|" + keyOf(sampledBench, sampledScale, 0, cfg), stats: sum.Stats})
	for _, ci := range sum.CIs {
		if ci.Name == "ipc" {
			u.ipcCIPct = 100 * ratio(ci.Half, ci.Mean)
		}
	}
	return u
}

// traced is RunSampled's work spelled out step by step: one fast-forward,
// then the intervals on two workers, each with one machine that is built
// by core.NewRestored for its first interval and moved by ResetTo after.
func (w *sampled) traced(tr *tracer, cfg core.Config, u *unitResult) (*sample.Summary, error) {
	p, err := load(tr, sampledBench, sampledScale)
	if err != nil {
		return nil, err
	}
	sp := tr.start("sample.fastforward", 0, 0)
	ff, err := sample.FastForward(p, cfg, sampledPlan, 0)
	tr.endWith(sp, func(s *span) {
		if ff != nil {
			s.Insts = ff.TotalInsts
		}
	})
	if err != nil {
		return nil, err
	}
	if ff.Output != w.ref.output {
		u.fail("sampled %s: fast-forward output differs from the emulator", sampledBench)
	}

	// Both workers' machines are built before the workers start, so each
	// core.new span's allocation count is not mixed with the other's.
	n := len(ff.Checkpoints)
	machines := make([]*core.Machine, min(sampledWorkers, n))
	oracles := make([]*interval, len(machines))
	for k := range machines {
		iv, err := intervalOracle(tr, p, ff, k)
		if err != nil {
			return nil, err
		}
		before := totalAlloc()
		sp := tr.start("core.new", 0, 0)
		machines[k], err = core.NewRestored(p, cfg, iv.ck.State, iv.oracle)
		tr.endWith(sp, func(s *span) { s.Bytes = totalAlloc() - before })
		if err != nil {
			return nil, err
		}
		oracles[k] = iv
	}

	ivs := make([]sample.IntervalResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for wk, m := range machines {
		wg.Add(1)
		go func(wk int, m *core.Machine) {
			defer wg.Done()
			for k := wk; k < n; k += len(machines) {
				iv := oracles[wk]
				if k != wk {
					if iv, errs[k] = intervalOracle(tr, p, ff, k); errs[k] != nil {
						return
					}
				}
				sp := tr.start("sample.drive", 0, 0)
				if k != wk {
					errs[k] = m.ResetTo(cfg, iv.ck.State, iv.oracle)
				}
				if errs[k] == nil {
					ivs[k], errs[k] = sample.DriveInterval(context.Background(), m, iv.ck, iv.warm)
				}
				tr.end(sp)
				if errs[k] != nil {
					return
				}
			}
		}(wk, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sp = tr.start("sample.stitch", 0, 0)
	defer tr.end(sp)
	return sample.Stitch(ff, ivs)
}

type interval struct {
	ck     *sample.Checkpoint
	warm   uint64
	oracle *emu.TraceLog
}

// intervalOracle re-derives interval k's correct-path trace.
func intervalOracle(tr *tracer, p *prog.Program, ff *sample.FFResult, k int) (*interval, error) {
	ck, warm, measured, err := ff.IntervalSpec(k)
	if err != nil {
		return nil, err
	}
	sp := tr.start("sample.interval_oracle", 0, 0)
	defer tr.end(sp)
	oracle, err := sample.IntervalOracle(p, ck, warm+measured)
	if err != nil {
		return nil, err
	}
	return &interval{ck, warm, oracle}, nil
}
