package server

import (
	"context"
	"fmt"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/sample"
)

// SampleBlock is the wire form of a checkpointed-sampling plan (see
// docs/sampling.md). On /v1/run and at the top level of /v1/sweep it samples
// the whole program; on an explicit sweep cell an IntervalIndex narrows the
// cell to one interval of the plan — the form the distributed coordinator
// uses to fan a sampled run's intervals across machines.
type SampleBlock struct {
	// Interval is the measured interval length in dynamic instructions
	// (required, > 0).
	Interval uint64 `json:"interval"`
	// Every measures one interval in every Every (0 or 1 = all, k ≈ 1/k
	// coverage).
	Every uint64 `json:"every,omitempty"`
	// Warmup is the detailed-warmup instruction count before each measured
	// interval; warmup statistics are discarded.
	Warmup uint64 `json:"warmup,omitempty"`
	// IntervalIndex, when present, names one interval of the plan (≥ 0).
	// Only valid on explicit sweep cells.
	IntervalIndex *int `json:"interval_index,omitempty"`
}

// Plan converts the block to the internal sampling plan.
func (b *SampleBlock) Plan() sample.Plan {
	return sample.Plan{Interval: b.Interval, Every: b.Every, Warmup: b.Warmup}.Normalize()
}

// Validate rejects malformed blocks with messages precise enough for a
// structured 400.
func (b *SampleBlock) Validate(allowIndex bool) error {
	if b.Interval == 0 {
		return fmt.Errorf("sample.interval must be a positive instruction count")
	}
	if err := b.Plan().Validate(); err != nil {
		return err
	}
	if b.IntervalIndex != nil {
		if !allowIndex {
			return fmt.Errorf("sample.interval_index is only valid on explicit sweep cells")
		}
		if *b.IntervalIndex < 0 {
			return fmt.Errorf("sample.interval_index must be >= 0, got %d", *b.IntervalIndex)
		}
	}
	return nil
}

// spec converts the block to the cell identity's sampling part: nil for no
// block, the whole plan without an IntervalIndex.
func (b *SampleBlock) spec() *cell.Sample {
	if b == nil {
		return nil
	}
	s := &cell.Sample{Plan: b.Plan(), Index: cell.WholeProgram}
	if b.IntervalIndex != nil {
		s.Index = *b.IntervalIndex
	}
	return s
}

// SampleCI is one metric's 95% confidence interval across the sampled
// intervals.
type SampleCI struct {
	Name string  `json:"name"`
	Mean float64 `json:"mean"`
	Half float64 `json:"half"`
}

// SampleResult is the wire form of a stitched sampling summary.
type SampleResult struct {
	Intervals    int        `json:"intervals"`
	TotalInsts   uint64     `json:"total_insts"`
	SampledInsts uint64     `json:"sampled_insts"`
	Coverage     float64    `json:"coverage"`
	Exact        bool       `json:"exact"`
	CIs          []SampleCI `json:"cis,omitempty"`
}

func sampleResultFrom(sum *sample.Summary) *SampleResult {
	if sum == nil {
		return nil
	}
	out := &SampleResult{
		Intervals:    sum.Intervals,
		TotalInsts:   sum.TotalInsts,
		SampledInsts: sum.SampledInsts,
		Coverage:     sum.Coverage,
		Exact:        sum.Exact,
	}
	for _, ci := range sum.CIs {
		out.CIs = append(out.CIs, SampleCI{Name: ci.Name, Mean: ci.Mean, Half: ci.Half})
	}
	return out
}

// ID is the full identity of the cell at the sweep's scale and instruction
// cap under its resolved configuration (see ResolveCells).
func (c SweepCellSpec) ID(scale int, maxInsts uint64, cfg core.Config) cell.ID {
	return cell.ID{Bench: c.Bench, Scale: scale, MaxInsts: maxInsts, Cfg: cfg, Sample: c.Sample.spec()}
}

// runSampled executes a sampled /v1/run on a per-request harness runner (the
// same pattern handleSweep uses): the plan's intervals fan out across the
// runner's worker pool, and the stitched summary comes back alongside the
// whole-program statistics.
func (s *Server) runSampled(ctx context.Context, id cell.ID) (*sample.Summary, error) {
	runner := harness.NewRunner()
	runner.Scale = id.Scale
	runner.MaxInsts = id.MaxInsts
	runner.Parallelism = s.cfg.SweepParallelism
	if s.cfg.Timeout > 0 {
		runner.Timeout = s.cfg.Timeout
	}
	return runner.RunSampled(ctx, id.Bench, id.Cfg, id.Sample.Plan)
}
