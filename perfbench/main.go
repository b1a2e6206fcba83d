// Command perfbench is the repository's end-to-end and per-layer benchmark.
//
// It runs one workload in one process and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload repro|long|sampled|serve --seed N --seconds S --trace 0|1
//
// Every workload repeats a fixed unit of work until --seconds have elapsed
// (at least once) and reports medians over the units. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it alternates untraced and
// traced units, records spans around every call into the repository's
// layers, writes the spans to <out>/trace-<workload>-<seed>.jsonl and prints
// the per-layer metrics. Every output is checked; a failed check counts as a
// failed operation and its unit's timing is not reported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times the workload's set-up is repeated; setup_s is
// the median, so one slow first set-up (page faults, heap growth) does not
// decide the figure.
const setupReps = 15

// runner is one benchmark workload. setup loads its programs and builds
// what the units share; prepare computes the reference answers the checks
// compare against (untimed); unit performs one repetition of the fixed work.
// A nil tracer means an untraced unit.
type runner interface {
	setup(tr *tracer) error
	prepare() error
	unit(tr *tracer) unitResult
}

// prober is a workload whose traced units are followed by an untimed probe
// that calls a layer the unit's own calls hide.
type prober interface {
	probe(tr *tracer) unitResult
}

// unitResult is what one unit of work did: the simulated instructions it
// committed, the operations it attempted and how many failed (an error or a
// failed output check), and the simulated statistics it produced.
type unitResult struct {
	insts     uint64
	attempted int
	failed    int
	stats     []keyedStats
	// ipcCIPct is the sampled run's IPC confidence half-width in percent of
	// the mean (sampled units only).
	ipcCIPct float64
}

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: repro, long, sampled or serve")
	seed := flag.Int64("seed", 1, "seed for every random choice of the workload")
	seconds := flag.Float64("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the span file")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed int64) (runner, error) {
	switch name {
	case "repro":
		return &repro{}, nil
	case "long":
		return &long{cells: longCells()}, nil
	case "sampled":
		return &sampled{}, nil
	case "serve":
		return &serve{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func run(name string, seed int64, budget time.Duration, traced bool, outDir string) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var m measurement
	m.setup = make([]float64, setupReps)
	for i := range m.setup {
		var str *tracer
		if i == len(m.setup)-1 {
			str = tr // spans of one set-up give workload.load_s
		}
		settleHeap()
		t0 := time.Now()
		if err := w.setup(str); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		m.setup[i] = time.Since(t0).Seconds()
	}
	if tr != nil {
		m.setupSpans = len(tr.spans)
	}
	if err := w.prepare(); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	m.calib = calibrate()

	start := time.Now()
	for i := 0; ; i++ {
		// Traced runs alternate untraced and traced units so both medians
		// come from the same process and host conditions.
		var utr *tracer
		if traced && i%2 == 1 {
			utr = tr
		}
		last := m.unit(w, utr)
		if (!traced || i >= 1) && time.Since(start)+last > budget {
			break
		}
	}

	fmt.Printf("stats_digest %s\n", m.digest())
	fmt.Printf("host.calib_ms %.4f\n", m.calib)
	if traced {
		if err := tr.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))); err != nil {
			return err
		}
	}
	res := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics(tr)}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measurement accumulates the units of one run. Only units whose every
// check passed contribute timings.
type measurement struct {
	attempted, failed int
	setup             []float64 // seconds per set-up
	calib             float64   // host.calib_ms
	wall, rate, alloc []float64 // untraced units
	rss               []float64 // peak RSS in MB of each untraced unit
	tracedWall        []float64
	setupSpans        int // spans recorded by the traced set-up
	stats             []keyedStats
	ipcCIPct          float64 // of the last traced unit
}

// metrics returns the end-to-end metrics, or with a tracer the per-layer
// metrics of its spans.
func (m *measurement) metrics(tr *tracer) map[string]metric {
	out := map[string]metric{}
	if tr != nil {
		layerMetrics(out, tr, m)
		out["host.calib_ms"] = metric{m.calib, "ms"}
		out["trace.overhead_frac"] = metric{ratio(median(m.tracedWall), median(m.wall)) - 1, "ratio"}
		return out
	}
	out["setup_s"] = metric{median(m.setup), "s"}
	out["wall_s"] = metric{median(m.wall), "s"}
	out["sim_minsts_per_s"] = metric{median(m.rate), "Minst/s"}
	out["alloc_mb"] = metric{median(m.alloc), "MB"}
	out["peak_rss_mb"] = metric{median(m.rss), "MB"}
	return out
}

// unit runs one unit of w and records it; it returns the unit's wall time.
func (m *measurement) unit(w runner, tr *tracer) time.Duration {
	settleHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSSPoller()
	t0 := time.Now()
	u := w.unit(tr)
	d := time.Since(t0)
	peak := rss.peak()
	runtime.ReadMemStats(&after)
	if p, ok := w.(prober); ok && tr != nil {
		pr := p.probe(tr)
		u.attempted += pr.attempted
		u.failed += pr.failed
		u.stats = append(u.stats, pr.stats...)
	}

	fmt.Fprintf(os.Stderr, "perfbench: unit traced=%v wall=%.4fs rss=%.1fMB failed=%d\n", tr != nil, d.Seconds(), peak, u.failed)
	m.attempted += u.attempted
	m.failed += u.failed
	m.stats = append(m.stats, u.stats...)
	if u.failed > 0 {
		return d
	}
	if tr != nil {
		m.tracedWall = append(m.tracedWall, d.Seconds())
		m.ipcCIPct = u.ipcCIPct
		return d
	}
	m.wall = append(m.wall, d.Seconds())
	m.rate = append(m.rate, float64(u.insts)/1e6/d.Seconds())
	m.alloc = append(m.alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	m.rss = append(m.rss, peak)
	return d
}

// settleHeap collects the garbage of earlier work and returns the freed
// memory to the operating system, so each timed piece starts from the same
// heap and resident set. The core's oracle cache frees a program's trace
// from a cleanup that runs after the collection that found the program
// unreachable; the pause lets the cleanups run, and FreeOSMemory's
// collection frees the traces they released.
func settleHeap() {
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	debug.FreeOSMemory()
}

// calibrate times a fixed pure-Go loop that calls no repository code and
// returns the median of a few repetitions in milliseconds. It shows host
// drift between runs; no other metric is divided by it.
func calibrate() float64 {
	var table [1 << 14]uint32
	times := make([]float64, 5)
	for r := range times {
		t0 := time.Now()
		x := uint32(2463534242)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			table[x%uint32(len(table))] += x
		}
		times[r] = float64(time.Since(t0).Nanoseconds()) / 1e6
		calibSink = table[x%uint32(len(table))]
	}
	return median(times)
}

// calibSink keeps the calibration loop's work observable to the compiler.
var calibSink uint32

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssPoller samples the process's resident set size while a unit runs and
// keeps the largest sample. VmHWM cannot be reset between units, so the
// peak of each unit is sampled instead.
type rssPoller struct {
	stop chan struct{}
	done chan float64
}

const rssPollInterval = 5 * time.Millisecond

func startRSSPoller() *rssPoller {
	p := &rssPoller{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		tick := time.NewTicker(rssPollInterval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return p
}

// peak stops the poller and returns the largest sample in MB.
func (p *rssPoller) peak() float64 {
	close(p.stop)
	return <-p.done
}

// rssMB returns the process's resident set size in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// readRepoFile reads a file of the repository the benchmark runs in; the
// checks compare against committed reference outputs.
func readRepoFile(rel string) ([]byte, error) {
	b, err := os.ReadFile(rel)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s not found: run from the repository root", rel)
	}
	return b, err
}
