package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"github.com/vpir-sim/vpir/internal/core"
)

// keyedStats is one simulated result and the cell that produced it.
type keyedStats struct {
	key   string
	stats core.Stats
}

// digest hashes every simulated result of the run, sorted by cell, so two
// builds can show that their simulated statistics are bit-identical. Cells
// repeated across units must agree; the digest covers each cell once.
func (m *measurement) digest() string {
	seen := map[string]string{}
	for _, ks := range m.stats {
		seen[ks.key] = fmt.Sprintf("%+v", ks.stats)
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\t%s\n", k, seen[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// paperExperiments are the paper's own tables and figures, in paper order.
var paperExperiments = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
}

// coreTechniques are the techniques core.ns_per_inst is reported for.
var coreTechniques = []string{"base", "ir", "vp", "hybrid"}

// layerMetrics fills out with every per-layer metric of a traced run. Times
// are self times per traced unit; a layer the workload bypasses reads 0.
func layerMetrics(out map[string]metric, tr *tracer, m *measurement) {
	spans := tr.spans
	self := selfTimes(spans)
	units := float64(max(len(m.tracedWall), 1))

	var loadS float64
	for i := range spans[:m.setupSpans] {
		loadS += self[i]
	}
	spans, self = spans[m.setupSpans:], self[m.setupSpans:]
	sum := map[string]float64{}    // self seconds by name
	sumTag := map[string]float64{} // self seconds by name/tag
	var newBytes uint64
	var runCycles, runSkipped uint64
	tagInsts := map[string]uint64{}
	var driveN, ffInsts float64
	var hits, misses, traces []float64
	var coalesced, requests, respBytes float64
	for i, s := range spans {
		sum[s.Name] += self[i]
		sumTag[s.Name+"/"+s.Tag] += self[i]
		switch s.Name {
		case "core.new":
			newBytes += s.Bytes
		case "core.run":
			runCycles += s.Cycles
			runSkipped += s.Skipped
			tagInsts[s.Tag] += s.Insts
		case "sample.fastforward":
			ffInsts += float64(s.Insts)
		case "sample.drive":
			driveN++
		case "server.run", "server.trace":
			requests++
			respBytes += float64(s.Bytes)
			ms := s.dur() * 1e3
			switch {
			case s.Name == "server.trace":
				if s.Tag == "MISS" {
					traces = append(traces, ms)
				}
			case s.Tag == "MISS":
				misses = append(misses, ms)
			case s.Tag == "COALESCED":
				coalesced++
			default:
				hits = append(hits, ms)
			}
		}
	}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	set("workload.load_s", "s", loadS)
	set("core.new_s", "s", sum["core.new"]/units)
	set("core.new_alloc_mb", "MB", float64(newBytes)/1e6/units)
	set("core.reset_s", "s", sum["core.reset"]/units)
	set("core.run_s", "s", sum["core.run"]/units)
	for _, t := range coreTechniques {
		set("core.ns_per_inst."+t, "ns", ratio(sumTag["core.run/"+t]*1e9, float64(tagInsts[t])))
	}
	set("core.ns_per_cycle", "ns", ratio(sum["core.run"]*1e9, float64(runCycles)))
	set("core.cycles_skipped_frac", "ratio", ratio(float64(runSkipped), float64(runCycles)))
	for _, id := range paperExperiments {
		set("harness.experiment_s."+id, "s", sumTag["harness.experiment/"+id]/units)
	}
	set("sample.fastforward_s", "s", sum["sample.fastforward"]/units)
	set("sample.ff_minsts_per_s", "Minst/s", ratio(ffInsts/1e6, sum["sample.fastforward"]))
	set("sample.interval_oracle_s", "s", sum["sample.interval_oracle"]/units)
	set("sample.drive_s", "s", sum["sample.drive"]/units)
	set("sample.stitch_s", "s", sum["sample.stitch"]/units)
	set("sample.intervals", "count", driveN/units)
	set("sample.ipc_ci_pct", "%", m.ipcCIPct)

	tailPct, tail, _ := tailPercentile(misses)
	set("server.hit_ms", "ms", median(hits))
	set("server.miss_ms", "ms", median(misses))
	set("server.miss_tail_ms", "ms", tail)
	set("server.miss_tail_pct", "%", tailPct)
	set("server.misses", "count", float64(len(misses)))
	set("server.trace_ms", "ms", median(traces))
	set("server.req_per_s", "1/s", ratio(requests, sumOf(m.tracedWall)))
	set("server.hit_frac", "ratio", ratio(float64(len(hits)), requests))
	set("server.coalesced_frac", "ratio", ratio(coalesced, requests))
	set("server.resp_kb", "KB", ratio(respBytes/1024, requests))

	modelCounters(out, m.stats)
}

// modelCounters reports the simulated model's rates over every result the
// run simulated (each cell once). They are invariants for a change that
// only speeds the simulator up.
func modelCounters(out map[string]metric, all []keyedStats) {
	seen := map[string]bool{}
	var s core.Stats
	for _, ks := range all {
		if seen[ks.key] {
			continue
		}
		seen[ks.key] = true
		s = add(s, ks.stats)
	}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	set("core.exec_per_commit", "ratio", ratio(float64(s.Executed), float64(s.Committed)))
	set("core.contention", "ratio", s.Contention())
	set("core.squashes_per_kinst", "1/kinst", ratio(1000*float64(s.Squashes), float64(s.Committed)))
	set("bpred.cond_accuracy", "%", s.BranchPredRate())
	set("bpred.return_accuracy", "%", s.ReturnPredRate())
	set("mem.icache_miss_rate", "%", 100*ratio(float64(s.ICacheMisses), float64(s.ICacheAccesses)))
	set("mem.dcache_miss_rate", "%", 100*ratio(float64(s.DCacheMisses), float64(s.DCacheAccesses)))
	set("vp.result_pred_frac", "ratio", ratio(float64(s.VPResultPredicted), float64(s.Committed)))
	set("vp.result_accuracy", "%", 100*ratio(float64(s.VPResultCorrect), float64(s.VPResultPredicted)))
	set("vp.addr_accuracy", "%", 100*ratio(float64(s.VPAddrCorrect), float64(s.VPAddrPredicted)))
	set("reuse.result_frac", "ratio", ratio(float64(s.ReusedResults), float64(s.Committed)))
	set("reuse.addr_frac", "ratio", ratio(float64(s.ReusedAddrs), float64(s.MemOps)))
}

// add sums the counters the model rates are computed from.
func add(a, b core.Stats) core.Stats {
	a.Committed += b.Committed
	a.Executed += b.Executed
	a.Squashes += b.Squashes
	a.CondBranches += b.CondBranches
	a.CondMispredict += b.CondMispredict
	a.Returns += b.Returns
	a.ReturnsCorrect += b.ReturnsCorrect
	a.ResourceRequests += b.ResourceRequests
	a.ResourceDenials += b.ResourceDenials
	a.ICacheAccesses += b.ICacheAccesses
	a.ICacheMisses += b.ICacheMisses
	a.DCacheAccesses += b.DCacheAccesses
	a.DCacheMisses += b.DCacheMisses
	a.VPResultPredicted += b.VPResultPredicted
	a.VPResultCorrect += b.VPResultCorrect
	a.VPAddrPredicted += b.VPAddrPredicted
	a.VPAddrCorrect += b.VPAddrCorrect
	a.ReusedResults += b.ReusedResults
	a.ReusedAddrs += b.ReusedAddrs
	a.MemOps += b.MemOps
	return a
}

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// keyOf names a simulated cell for the digest.
func keyOf(bench string, scale int, maxInsts uint64, cfg core.Config) string {
	return fmt.Sprintf("%s|%d|%d|%s", bench, scale, maxInsts, cfg.Key())
}
