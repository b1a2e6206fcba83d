package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The checks read committed reference outputs relative to the repository
// root, as the benchmark does when run.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestServeMixDeterministic(t *testing.T) {
	a, b := serveMix(7), serveMix(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different mixes")
	}
	if reflect.DeepEqual(a, serveMix(8)) {
		t.Fatal("two seeds gave the same order")
	}
	// Every seed sends the same requests, only in another order.
	sorted := func(m []request) []string {
		var s []string
		for _, r := range m {
			s = append(s, r.cell())
		}
		sort.Strings(s)
		return s
	}
	if !reflect.DeepEqual(sorted(a), sorted(serveMix(8))) {
		t.Fatal("two seeds sent different requests")
	}
	traces := 0
	for _, r := range a {
		if r.path == "/v1/trace" {
			traces++
		}
	}
	if frac := float64(traces) / float64(len(a)); frac < 0.04 || frac > 0.06 {
		t.Fatalf("trace share %.3f, want about 5%%", frac)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		pct, v, ok := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if ok != (n >= 20) {
			t.Fatalf("n=%d: ok=%v", n, ok)
		}
		if ok && beyond < 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, pct, beyond)
		}
		if n == 100 && pct != 90 || n == 1000 && pct != 99 || n == 99 && pct != 50 {
			t.Fatalf("n=%d: got p%v", n, pct)
		}
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10e9},
		{ID: 2, Parent: 1, Start: 1e9, End: 3e9},
		{ID: 3, Parent: 1, Start: 2e9, End: 5e9},
		{ID: 4, Parent: 1, Start: 7e9, End: 8e9},
	}
	if got := selfTimes(spans)[0]; got != 5 {
		t.Fatalf("self time %v, want 5", got)
	}
}

func TestWrongTableFails(t *testing.T) {
	w := &repro{order: []string{"table1"}}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if u := w.unit(nil); u.failed != 0 || u.attempted != 1 {
		t.Fatalf("committed table1: %d of %d failed", u.failed, u.attempted)
	}
	w.expected["table1"] += "x"
	if u := w.unit(nil); u.failed != 1 {
		t.Fatal("a wrong table passed the check")
	}
}

func TestWrongOutputFails(t *testing.T) {
	chase := longCells()[1]
	chase.scale = 1
	w := &long{cells: []longCell{chase}}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if u := w.unit(nil); u.failed != 0 {
		t.Fatal("the emulator's own output failed the check")
	}
	w.refs[0].output += "x"
	if u := w.unit(nil); u.failed != 1 {
		t.Fatal("a wrong output passed the check")
	}
}

func TestWrongBodyFails(t *testing.T) {
	w := &serve{}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	golden := w.golden["gcc|base"]
	stats := map[string]any{}
	for k, v := range golden {
		stats[k] = v
	}
	body := func() []byte {
		b, _ := json.Marshal(map[string]any{"stats": stats, "exit_code": golden["exit_code"]})
		return b
	}
	miss := request{"/v1/run", "gcc", "base", goldenInsts}
	w.mix = []request{miss, miss}
	good := body()
	ok := reply{status: 200, cache: "MISS", sum: sha256.Sum256(good), body: good}
	var u unitResult
	w.check(&u, []reply{ok, {status: 200, cache: "HIT", sum: ok.sum}})
	if u.failed != 0 {
		t.Fatal("matching replies failed the check")
	}
	u = unitResult{}
	w.check(&u, []reply{ok, {status: 200, cache: "HIT", sum: sha256.Sum256([]byte("other"))}})
	if u.failed != 1 {
		t.Fatal("a HIT body that differs from the MISS body passed")
	}
	stats["cycles"] = golden["cycles"].(float64) + 1
	bad := body()
	u = unitResult{}
	w.check(&u, []reply{{status: 200, cache: "MISS", sum: sha256.Sum256(bad), body: bad}, {status: 200, cache: "HIT", sum: sha256.Sum256(bad)}})
	if u.failed != 1 {
		t.Fatal("a reply that differs from testdata/golden passed")
	}
}

// failing is a workload whose every unit fails its check.
type failing struct{}

func (failing) setup(*tracer) error { return nil }
func (failing) prepare() error      { return nil }
func (failing) unit(*tracer) unitResult {
	time.Sleep(time.Millisecond)
	return unitResult{attempted: 2, failed: 1}
}

func TestFailedUnitCountsAndIsNotTimed(t *testing.T) {
	var m measurement
	m.unit(failing{}, nil)
	if m.attempted != 2 || m.failed != 1 {
		t.Fatalf("attempted %d failed %d", m.attempted, m.failed)
	}
	if len(m.wall) != 0 || len(m.rate) != 0 || len(m.alloc) != 0 {
		t.Fatal("a failed unit's timing was recorded")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names in step with
// BENCHMARK.json: untraced runs print every end_to_end metric and traced
// runs every per_layer metric, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var m measurement
	for _, c := range []struct {
		tr   *tracer
		want []struct{ Name, Unit string }
	}{{nil, spec.EndToEnd}, {newTracer(), spec.PerLayer}} {
		got := m.metrics(c.tr)
		if len(got) != len(c.want) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got), len(c.want))
		}
		for _, w := range c.want {
			if g, ok := got[w.Name]; !ok || g.Unit != w.Unit {
				t.Errorf("%s: printed %+v (present %v), BENCHMARK.json unit %q", w.Name, g, ok, w.Unit)
			}
		}
	}
}
