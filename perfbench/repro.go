package main

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/harness"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

// reproResults is the committed output of every experiment at scale 1.
const reproResults = "docs/full_results.txt"

// repro regenerates the paper's tables and figures through the harness at
// scale 1 with two sweep workers, on a fresh Runner per unit (cold result
// cache), in paper order as vpir-bench does. Experiments share cells through
// the Runner's cache, so the order decides which experiment pays for a
// cell; it is fixed so harness.experiment_s.<id> compares across seeds, and
// the seed changes nothing.
type repro struct {
	progs    map[string]*prog.Program
	expected map[string]string
	order    []string
}

func (w *repro) setup(tr *tracer) error {
	progs, err := loadAll(tr, workload.Names(), 1)
	if err != nil {
		return err
	}
	w.progs = progs
	w.order = paperExperiments
	return nil
}

func (w *repro) prepare() error {
	b, err := readRepoFile(reproResults)
	if err != nil {
		return err
	}
	w.expected = splitResults(string(b))
	for _, id := range paperExperiments {
		if _, ok := w.expected[id]; !ok {
			return fmt.Errorf("%s has no %s section", reproResults, id)
		}
	}
	return nil
}

func (w *repro) unit(tr *tracer) unitResult {
	var u unitResult
	r := harness.NewRunner()
	r.Parallelism = 2
	var mu sync.Mutex
	simulated := map[string]core.Stats{}
	r.OnResult = func(_ int, res harness.SweepResult) {
		if res.Err != nil || res.Attempts == 0 {
			return
		}
		mu.Lock()
		simulated[keyOf(res.Bench, 1, 0, res.Cfg)] = res.Stats
		mu.Unlock()
	}
	for _, id := range w.order {
		u.attempted++
		e, err := harness.Find(id)
		if err != nil {
			u.fail("%v", err)
			continue
		}
		sp := tr.start("harness.experiment", 0, 0)
		tables, err := e.Run(r)
		tr.endWith(sp, func(s *span) { s.Tag = id })
		if err != nil {
			u.fail("%s: %v", id, err)
			continue
		}
		var sb strings.Builder
		for _, t := range tables {
			sb.WriteString(t.String())
			sb.WriteString("\n")
		}
		if got := sb.String(); got != w.expected[id] {
			u.fail("%s: tables differ from %s:\n%s", id, reproResults, got)
		}
	}
	for k, s := range simulated {
		u.insts += s.Committed
		u.stats = append(u.stats, keyedStats{key: k, stats: s})
	}
	return u
}

// coreProbe drives the timing core directly for the seven kernels under the
// four main techniques, as a harness sweep worker does: core.New for the
// first configuration, Machine.Reset for the others. The harness hides these
// calls, so the probe is how the traced run times the core layer on the
// paper's kernels. It follows each traced unit, outside the unit's timing.
func (w *repro) probe(tr *tracer) unitResult {
	var u unitResult
	probe := tr.start("core.probe", 0, 0)
	defer tr.end(probe)
	for _, bench := range workload.Names() {
		var m *core.Machine
		for _, tech := range coreTechniques {
			u.attempted++
			cfg, err := technique.Resolve(tech, technique.Knobs{})
			if err != nil {
				u.fail("%v", err)
				continue
			}
			if m == nil {
				m, err = newMachine(tr, probe, w.progs[bench], cfg)
			} else {
				sp := tr.start("core.reset", probe, 0)
				err = m.Reset(cfg)
				tr.end(sp)
			}
			if err != nil {
				u.fail("%s/%s: %v", bench, tech, err)
				m = nil
				continue
			}
			s, err := runMachine(tr, probe, m, tech)
			if err != nil {
				u.fail("%s/%s: %v", bench, tech, err)
				m = nil
				continue
			}
			u.stats = append(u.stats, keyedStats{key: "probe|" + keyOf(bench, 1, 0, cfg), stats: s})
		}
	}
	return u
}

var timingLine = regexp.MustCompile(`^\((\S+) in .*\)$`)

// splitResults cuts vpir-bench output into each experiment's tables: the
// text before its "(id in Ns)" line, after the previous one and the blank
// line that follows it.
func splitResults(text string) map[string]string {
	out := map[string]string{}
	var cur strings.Builder
	skipBlank := false
	for _, line := range strings.SplitAfter(text, "\n") {
		if skipBlank && line == "\n" {
			skipBlank = false
			continue
		}
		skipBlank = false
		if m := timingLine.FindStringSubmatch(strings.TrimSuffix(line, "\n")); m != nil {
			out[m[1]] = cur.String()
			cur.Reset()
			skipBlank = true
			continue
		}
		cur.WriteString(line)
	}
	return out
}

// loadAll assembles the named workloads at scale, one workload.load span
// each.
func loadAll(tr *tracer, names []string, scale int) (map[string]*prog.Program, error) {
	progs := map[string]*prog.Program{}
	for _, name := range names {
		p, err := load(tr, name, scale)
		if err != nil {
			return nil, err
		}
		progs[name] = p
	}
	return progs, nil
}
