// Package cell owns the decisions every execution layer shares: the
// identity of one simulation cell of the VP-vs-IR grid (a benchmark, a
// scale, an instruction cap and a machine configuration, plus an optional
// sampling plan), the in-memory cache that computes each cell once (Cache),
// and the per-worker set of reusable machines that runs cells. The harness
// sweep engine, the simulation server's pool workers, the distributed
// coordinator and the fault-injection campaign all key and run cells
// through this package, so a cell is spelled, cached, routed and stored the
// same way everywhere.
package cell

import (
	"strconv"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
)

// WholeProgram as a Sample.Index means "run the whole sampled plan in this
// cell": fast-forward, simulate every interval serially, stitch. Indexes
// ≥ 0 name one interval, the unit of parallel fan-out.
const WholeProgram = -1

// Sample attaches a sampling regime to a cell.
type Sample struct {
	Plan  sample.Plan
	Index int
}

// ID is the full identity of one simulation cell. Sample is nil for a
// full-program run.
type ID struct {
	Bench    string
	Scale    int
	MaxInsts uint64
	Cfg      core.Config
	Sample   *Sample
}

// Key is the cell's cache, store and routing key:
//
//	bench|scale|max_insts|cfgkey[|sample:plan[|kN]]
//
// The sample fragment is absent for full-program cells, so their keys (and
// the durable store entries addressed by them) are byte-identical to the
// keys written before sampling existed; a whole-plan sampled cell appends
// the plan, an interval cell also its index. Every server request builds
// one, hit or miss, so this stays a plain string build.
func (id ID) Key() string {
	key := id.program() + "|" + id.Cfg.Key()
	if s := id.Sample; s != nil {
		key += "|sample:" + s.Plan.Key()
		if s.Index != WholeProgram {
			key += "|k" + strconv.Itoa(s.Index)
		}
	}
	return key
}

// CoordKey is the coordinator's store key for the cell. The "cell|"
// namespace keeps coordinator sweep lines apart from a server's /v1/run
// bodies (a different format) when the two share a store directory.
func (id ID) CoordKey() string { return "cell|" + id.Key() }

// TraceKey is the key of one /v1/trace result: the run identity extended
// with the capture bounds (pipetrace window, sampler interval, event ring
// capacity), since different bounds are a different payload. The sampling
// plan is not part of a trace.
//
//	trace|bench|scale|max_insts|window|interval|events|cfgkey
func (id ID) TraceKey(window int, interval uint64, events int) string {
	return "trace|" + id.program() + "|" + strconv.Itoa(window) + "|" +
		strconv.FormatUint(interval, 10) + "|" + strconv.Itoa(events) + "|" + id.Cfg.Key()
}

// program is the part of the identity that fixes the simulated program:
// bench|scale|max_insts.
func (id ID) program() string {
	return id.Bench + "|" + strconv.Itoa(id.Scale) + "|" + strconv.FormatUint(id.MaxInsts, 10)
}
