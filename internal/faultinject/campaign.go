package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"github.com/vpir-sim/vpir/internal/cell"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/vp"
)

// Outcome classifies one fault-injection run against its fault-free
// baseline.
type Outcome int

const (
	// Masked: the run finished and every statistic matches the baseline —
	// the corrupted state was refreshed, evicted or never consulted.
	Masked Outcome = iota
	// Benign: the run finished with bit-identical architectural results
	// (program output, exit code, every retired instruction oracle-checked)
	// but shifted timing/statistics — the fault was absorbed by validation.
	Benign
	// Detected: the commit-time oracle flagged an architectural divergence.
	Detected
	// Hung: the pipeline watchdog tripped.
	Hung
	// Failed: any other error (including a silent output mismatch, which
	// the oracle makes impossible short of a simulator bug).
	Failed
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Benign:
		return "benign"
	case Detected:
		return "detected"
	case Hung:
		return "hung"
	}
	return "failed"
}

// RunReport is the result of one (benchmark, fault-kind) campaign cell.
type RunReport struct {
	Bench    string
	Config   string // configuration label the fault ran under
	Kind     Kind
	Injected int
	Skipped  int
	Outcome  Outcome
	Detail   string
	Log      []string // per-fault injection log (deterministic)
	// Expected says the outcome matches the fault model: unguarded RB
	// result corruption must be Detected; every guarded or
	// performance-only fault must finish with the oracle green (Masked or
	// Benign).
	Expected bool
}

// Campaign describes a deterministic fault-injection sweep.
type Campaign struct {
	Seed         int64
	Benches      []string
	Kinds        []Kind
	MaxInsts     uint64 // per-run dynamic instruction cap (0 = full runs)
	FaultsPerRun int
	// Parallel is the worker count for the sweep (0 or 1 = serial). The
	// report order and every report's content are independent of the worker
	// count: faults are planned from per-run seeds and machines are reused
	// via core.Machine.Reset, whose determinism contract guarantees
	// bit-identical runs.
	Parallel int
}

// DefaultCampaign is the standard sweep: every fault kind against a
// store-heavy kernel (compress) and a reuse-heavy one (m88ksim), three
// injection points per run, truncated runs.
func DefaultCampaign(seed int64) Campaign {
	return Campaign{
		Seed:         seed,
		Benches:      []string{"compress", "m88ksim"},
		Kinds:        Kinds(),
		MaxInsts:     60_000,
		FaultsPerRun: 3,
	}
}

// SmokeCampaign is the abbreviated sweep used by CI and -short tests.
func SmokeCampaign(seed int64) Campaign {
	return Campaign{
		Seed:         seed,
		Benches:      []string{"compress"},
		Kinds:        Kinds(),
		MaxInsts:     30_000,
		FaultsPerRun: 3,
	}
}

// configFor picks the machine configuration that instantiates the faulted
// structure. VP runs use the last-value predictor (no oracle selection, so
// a corrupted instance is actually consumed as a prediction) with a 1-cycle
// verification latency.
func configFor(k Kind) core.Config {
	switch k {
	case VPTValue, VPAValue:
		return core.VPChoice(vp.LVP, core.SB, core.ME, 1)
	case RBResult, RBOperand, RBOperandName, RBDepPointer:
		return core.IRChoice(false)
	default:
		return core.DefaultConfig()
	}
}

// baseline is the fault-free reference for one (bench, config) pair.
type baseline struct {
	stats  core.Stats
	output string
	exit   int
}

// Run executes the campaign and returns one report per (bench, kind) cell,
// in deterministic (bench-major, kind order) regardless of Parallel. The
// returned error covers campaign setup problems only; per-run failures are
// reported as outcomes.
func (c Campaign) Run() ([]RunReport, error) {
	type cellJob struct {
		bench string
		kind  Kind
	}
	var cells []cellJob
	for _, bench := range c.Benches {
		for _, kind := range c.Kinds {
			cells = append(cells, cellJob{bench, kind})
		}
	}
	id := func(bench string, k Kind) cell.ID {
		return cell.ID{Bench: bench, Scale: 1, MaxInsts: c.MaxInsts, Cfg: configFor(k)}
	}

	// Phase 1: fault-free baselines, one per unique (bench, config) pair.
	// They are keyed by cell identity, not fault kind, so several kinds
	// share one baseline run.
	var baseJobs []cell.ID
	seen := map[string]bool{}
	for _, cl := range cells {
		bid := id(cl.bench, cl.kind)
		if !seen[bid.Key()] {
			seen[bid.Key()] = true
			baseJobs = append(baseJobs, bid)
		}
	}
	baselines := make(map[string]*baseline, len(baseJobs))
	baseErrs := make([]error, len(baseJobs))
	var mu sync.Mutex
	c.forEachPar(len(baseJobs), func(i int, machines *cell.Machines) {
		j := baseJobs[i]
		baseErrs[i] = machines.Plain(j, func(m *core.Machine) error {
			if err := m.Run(0); err != nil {
				return fmt.Errorf("faultinject: baseline %s/%s: %w", j.Bench, j.Cfg.Name(), err)
			}
			mu.Lock()
			baselines[j.Key()] = &baseline{stats: m.Stats(), output: m.Output(), exit: m.ExitCode()}
			mu.Unlock()
			return nil
		})
	})
	if err := errors.Join(baseErrs...); err != nil {
		return nil, err
	}

	// Phase 2: injected runs, one per cell, reported in cell order. A run
	// that panics is dropped from its worker's set and reported as Failed.
	reports := make([]RunReport, len(cells))
	c.forEachPar(len(cells), func(i int, machines *cell.Machines) {
		cl := cells[i]
		rid := id(cl.bench, cl.kind)
		base := baselines[rid.Key()]
		rep := RunReport{Bench: cl.bench, Config: rid.Cfg.Name(), Kind: cl.kind}
		var out baseline
		runErr := machines.Plain(rid, func(m *core.Machine) error {
			plan := NewPlan(runSeed(c.Seed, cl.bench, cl.kind), cl.kind, c.FaultsPerRun, base.stats.Cycles)
			inj := Attach(m, plan)
			err := m.Run(0)
			rep.Injected, rep.Skipped = inj.Applied, inj.Skipped
			rep.Log = inj.Log
			out = baseline{stats: m.Stats(), output: m.Output(), exit: m.ExitCode()}
			return err
		})

		switch {
		case runErr == nil:
			switch {
			case out.output != base.output || out.exit != base.exit:
				rep.Outcome = Failed
				rep.Detail = "silent architectural divergence (output mismatch)"
			case out.stats == base.stats:
				rep.Outcome = Masked
			default:
				rep.Outcome = Benign
				rep.Detail = fmt.Sprintf("cycles %+d", int64(out.stats.Cycles)-int64(base.stats.Cycles))
			}
		case core.IsDivergence(runErr):
			se, _ := core.AsSimError(runErr)
			rep.Outcome = Detected
			rep.Detail = fmt.Sprintf("oracle: %s at pc %#x", se.Field, se.PC)
		case core.IsWatchdog(runErr):
			rep.Outcome = Hung
			rep.Detail = runErr.Error()
		default:
			rep.Outcome = Failed
			rep.Detail = runErr.Error()
		}

		if cl.kind.Unguarded() {
			rep.Expected = rep.Outcome == Detected
		} else {
			rep.Expected = rep.Outcome == Masked || rep.Outcome == Benign
		}
		reports[i] = rep
	})
	return reports, nil
}

// forEachPar runs fn(0..total-1) on max(1, min(c.Parallel, total)) workers;
// one worker is the serial campaign. Each worker owns a cell.Machines set
// passed to every invocation.
func (c Campaign) forEachPar(total int, fn func(i int, machines *cell.Machines)) {
	n := min(c.Parallel, total)
	if n < 1 {
		n = 1
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			machines := cell.NewMachines()
			for i := range jobs {
				fn(i, machines)
			}
		}()
	}
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runSeed derives a per-run RNG seed deterministically from the campaign
// seed and the run identity.
func runSeed(seed int64, bench string, kind Kind) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", bench, kind)
	return seed ^ int64(h.Sum64())
}

// Summarize renders the reports as a fixed-width table plus a PASS/FAIL
// verdict line; allOK reports whether every cell matched its expectation.
func Summarize(reports []RunReport) (table string, allOK bool) {
	var b strings.Builder
	allOK = true
	counts := map[Outcome]int{}
	fmt.Fprintf(&b, "%-9s %-20s %-17s %3s %3s  %-9s %-5s %s\n",
		"bench", "config", "fault", "inj", "skp", "outcome", "ok", "detail")
	for _, r := range reports {
		counts[r.Outcome]++
		okStr := "ok"
		if !r.Expected {
			okStr = "FAIL"
			allOK = false
		}
		fmt.Fprintf(&b, "%-9s %-20s %-17s %3d %3d  %-9s %-5s %s\n",
			r.Bench, r.Config, r.Kind.String(), r.Injected, r.Skipped,
			r.Outcome.String(), okStr, r.Detail)
	}
	fmt.Fprintf(&b, "\n%d runs: %d masked, %d benign, %d detected, %d hung, %d failed\n",
		len(reports), counts[Masked], counts[Benign], counts[Detected], counts[Hung], counts[Failed])
	if allOK {
		b.WriteString("PASS: VP/bpred/cache faults performance-only; unguarded RB result corruption caught by the oracle\n")
	} else {
		b.WriteString("FAIL: at least one run violated the fault model\n")
	}
	return b.String(), allOK
}
