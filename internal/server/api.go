// Package server turns the simulator into a network service: an HTTP JSON
// API that runs simulations on a bounded worker pool with per-worker
// machine reuse, serves repeats from a size-bounded result cache that also
// coalesces duplicate in-flight requests, and decomposes sweep requests into
// cells batched through the harness's parallel sweep engine. See
// docs/server.md for the API and operational contract.
package server

import (
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/technique"
)

// SimOptions is the wire form of one simulation configuration: the same
// knobs as the library's Options, as JSON-friendly strings. The zero value
// is the base machine.
type SimOptions struct {
	// Technique is any registered technique name ("base" when empty):
	// "base", "vp", "ir", "hybrid", "hybrid_conf", "vp_stride",
	// "vp_2delta", "vp_fcm", … — see internal/technique.Names.
	Technique string `json:"technique,omitempty"`
	// Scheme is the VP scheme for the scheme-selectable techniques:
	// "magic" (default), "lvp", "stride", "2delta" or "fcm".
	Scheme string `json:"scheme,omitempty"`
	// BranchResolution is "sb" (default) or "nsb".
	BranchResolution string `json:"branch_resolution,omitempty"`
	// Reexec is "me" (default) or "nme".
	Reexec string `json:"reexec,omitempty"`
	// VerifyLatency is the VP-verification latency in cycles.
	VerifyLatency int `json:"verify_latency,omitempty"`
	// LateValidation defers reuse benefits to execute (the Figure 3
	// "late" experiment).
	LateValidation bool `json:"late_validation,omitempty"`
	// WatchdogCycles overrides the livelock watchdog (0 keeps the
	// default, negative disables).
	WatchdogCycles int64 `json:"watchdog_cycles,omitempty"`
}

// Config maps the wire options onto a machine configuration. The mapping
// is the single source of truth for the string spelling of every knob —
// the public vpir.Options delegates here so the library and the wire API
// can never drift apart.
func (o SimOptions) Config() (core.Config, error) {
	cfg, err := o.baseConfig()
	if err != nil {
		return cfg, err
	}
	if o.WatchdogCycles > 0 {
		cfg.Watchdog = uint64(o.WatchdogCycles)
	} else if o.WatchdogCycles < 0 {
		cfg.Watchdog = 0
	}
	return cfg, nil
}

func (o SimOptions) baseConfig() (core.Config, error) {
	return technique.Resolve(o.Technique, technique.Knobs{
		Scheme:           o.Scheme,
		BranchResolution: o.BranchResolution,
		Reexec:           o.Reexec,
		VerifyLatency:    o.VerifyLatency,
		LateValidation:   o.LateValidation,
	})
}

// RunRequest is the body of POST /v1/run: one benchmark under one
// configuration.
type RunRequest struct {
	Bench    string     `json:"bench"`
	Scale    int        `json:"scale,omitempty"`
	MaxInsts uint64     `json:"max_insts,omitempty"`
	Options  SimOptions `json:"options"`
	// Sample switches the run to checkpointed sampled simulation; the
	// response then carries a SampleResult. Malformed blocks are rejected
	// with a structured 400.
	Sample *SampleBlock `json:"sample,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: either the cross product of
// benchmarks and configurations, or an explicit cell list (the form the
// distributed coordinator uses to hand a worker its partition — a hash
// partition of a grid is not itself a grid). The two forms are mutually
// exclusive. The response is NDJSON, one SweepLine per cell in
// deterministic cell order (bench-major for grids, list order for explicit
// cells), streamed as cells complete, with '#'-prefixed heartbeat comment
// lines interleaved while cells compute.
type SweepRequest struct {
	Benches  []string        `json:"benches,omitempty"`
	Options  []SimOptions    `json:"options,omitempty"`
	Cells    []SweepCellSpec `json:"cells,omitempty"`
	Scale    int             `json:"scale,omitempty"`
	MaxInsts uint64          `json:"max_insts,omitempty"`
	// Sample, at the request level, samples every cell under this plan
	// (interval_index is not valid here); per-cell blocks on explicit Cells
	// override it.
	Sample *SampleBlock `json:"sample,omitempty"`
}

// SweepCellSpec names one explicit sweep cell: a benchmark under a
// configuration, optionally narrowed to one sampled interval.
type SweepCellSpec struct {
	Bench   string     `json:"bench"`
	Options SimOptions `json:"options"`
	// Sample samples this cell; with IntervalIndex set the cell simulates
	// exactly one interval of the plan and its SweepLine carries the
	// per-interval measurement for client-side stitching.
	Sample *SampleBlock `json:"sample,omitempty"`
}

// SimStats is the wire form of one simulation's results: the raw counters
// that matter plus the derived paper metrics, mirroring the library's
// Result.
type SimStats struct {
	Config string `json:"config"`

	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	Executed  uint64  `json:"executed"`
	IPC       float64 `json:"ipc"`

	BranchPredRate float64 `json:"branch_pred_rate"`
	ReturnPredRate float64 `json:"return_pred_rate"`

	Squashes         uint64 `json:"squashes"`
	SpuriousSquashes uint64 `json:"spurious_squashes"`

	ReuseResultRate float64 `json:"reuse_result_rate"`
	ReuseAddrRate   float64 `json:"reuse_addr_rate"`
	ExecSquashedPct float64 `json:"exec_squashed_pct"`
	RecoveredPct    float64 `json:"recovered_pct"`

	VPResultPred    float64    `json:"vp_result_pred"`
	VPResultMispred float64    `json:"vp_result_mispred"`
	VPAddrPred      float64    `json:"vp_addr_pred"`
	VPAddrMispred   float64    `json:"vp_addr_mispred"`
	ExecTimesPct    [3]float64 `json:"exec_times_pct"`

	Contention               float64 `json:"contention"`
	MeanBranchResolveLatency float64 `json:"mean_branch_resolve_latency"`
}

// StatsFrom renders one simulation's counters in wire form; the
// coordinator uses it to synthesize sweep lines from locally executed
// cells that are byte-identical to worker-produced ones.
func StatsFrom(cfg core.Config, s core.Stats) SimStats { return statsFrom(cfg, s) }

func statsFrom(cfg core.Config, s core.Stats) SimStats {
	rp, rm := s.VPResultRates()
	ap, am := s.VPAddrRates()
	return SimStats{
		Config:                   cfg.Name(),
		Cycles:                   s.Cycles,
		Committed:                s.Committed,
		Executed:                 s.Executed,
		IPC:                      s.IPC(),
		BranchPredRate:           s.BranchPredRate(),
		ReturnPredRate:           s.ReturnPredRate(),
		Squashes:                 s.Squashes,
		SpuriousSquashes:         s.SpuriousSquashes,
		ReuseResultRate:          s.ReuseResultRate(),
		ReuseAddrRate:            s.ReuseAddrRate(),
		ExecSquashedPct:          s.ExecSquashedPct(),
		RecoveredPct:             s.RecoveredPct(),
		VPResultPred:             rp,
		VPResultMispred:          rm,
		VPAddrPred:               ap,
		VPAddrMispred:            am,
		ExecTimesPct:             s.ExecTimesPct(),
		Contention:               s.Contention(),
		MeanBranchResolveLatency: s.MeanBrResolveLat(),
	}
}

// RunResponse is the body of a successful POST /v1/run: the simulation
// stats plus the program's architectural output. Identical requests get
// byte-identical responses — the marshaled body is what the result cache
// stores.
type RunResponse struct {
	Bench    string   `json:"bench"`
	Scale    int      `json:"scale"`
	MaxInsts uint64   `json:"max_insts,omitempty"`
	Stats    SimStats `json:"stats"`
	Output   string   `json:"output"`
	ExitCode int      `json:"exit_code"`
	// Sample is the stitched sampling summary of a sampled run; absent
	// otherwise, so non-sampled responses are byte-identical to before.
	Sample *SampleResult `json:"sample,omitempty"`
}

// SweepLine is one NDJSON line of a POST /v1/sweep response: either a
// cell result (Index/Bench/Config/Stats set, Error empty), a cell failure
// (Error set), or — on the final line — the Done summary. Per-cell errors
// never abort the sweep; the Done line totals them, mirroring the
// harness's errors.Join partial-result contract.
type SweepLine struct {
	Index  int       `json:"index"`
	Bench  string    `json:"bench,omitempty"`
	Config string    `json:"config,omitempty"`
	Stats  *SimStats `json:"stats,omitempty"`
	Error  string    `json:"error,omitempty"`

	// Raw carries the cell's raw counters for sampled cells (SimStats holds
	// only derived metrics, and stitching needs the counters): the interval's
	// own statistics for interval cells, the stitched whole-program counters
	// for whole-plan cells.
	Raw *core.Stats `json:"raw,omitempty"`
	// Interval is the full per-interval measurement of an interval cell
	// (sample.interval_index set); a client stitches these, in index order,
	// into whole-program estimates.
	Interval *sample.IntervalResult `json:"interval,omitempty"`
	// Sample is the stitched summary of a whole-plan sampled cell.
	Sample *SampleResult `json:"sample,omitempty"`
	// Attempts audits retries on sampled and failed cells: 0 = served from
	// the runner's cache, 1 = first-try success, n > 1 = n−1 transient
	// failures were retried before this result. Hedged/retried interval
	// cells are thereby attributable; plain successful cells omit it so
	// their lines keep the pre-sampling byte shape.
	Attempts int `json:"attempts,omitempty"`

	Done   bool `json:"done,omitempty"`
	Cells  int  `json:"cells,omitempty"`
	Failed int  `json:"failed,omitempty"`
}

// BenchmarkEntry is one element of the GET /v1/benchmarks response.
type BenchmarkEntry struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// ErrorResponse is the body of every non-2xx JSON response. RequestID is
// present when the request passed through WithRequestID, so a client error
// report can be joined against the server's access log.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}
