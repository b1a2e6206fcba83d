package harness

import (
	"context"
	"strings"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
)

// fastRunner caps runs so the whole experiment suite is testable quickly.
func fastRunner() *Runner {
	r := NewRunner()
	r.MaxInsts = 60_000
	return r
}

func TestRunCaching(t *testing.T) {
	r := fastRunner()
	s1, err := r.Run("compress", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Run("compress", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("cached run differs")
	}
	// The repeated cell is served from the cache: it reports no attempt of
	// its own.
	res := r.Sweep(context.Background(), []SweepCell{{Bench: "compress", Cfg: core.DefaultConfig()}})[0]
	if res.Err != nil || res.Attempts != 0 || res.Stats != s1 {
		t.Errorf("repeated cell: attempts %d, err %v, stats equal %v; want a cache hit", res.Attempts, res.Err, res.Stats == s1)
	}
}

func TestRunUnknownBench(t *testing.T) {
	r := fastRunner()
	if _, err := r.Run("nope", core.DefaultConfig()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestExperimentsRegistered(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"ext-arb", "ext-hybrid", "ext-instances", "ext-rbsize", "ext-stride", "ext-window"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("got %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, got[i].ID, id)
		}
	}
}

func TestFind(t *testing.T) {
	if _, err := Find("table3"); err != nil {
		t.Error(err)
	}
	if _, err := Find("table99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsRun executes every experiment end to end on truncated
// workloads and sanity-checks the rendered tables.
func TestAllExperimentsRun(t *testing.T) {
	r := fastRunner()
	for _, e := range Experiments() {
		tables, err := e.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: no tables", e.ID)
		}
		for _, tab := range tables {
			out := tab.String()
			if !strings.Contains(out, tab.ID) {
				t.Errorf("%s: render missing ID", e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Errorf("%s: empty table", e.ID)
			}
			// Every row must have as many cells as columns.
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("%s: row %v vs %d columns", tab.ID, row, len(tab.Columns))
				}
			}
		}
	}
}

// TestSpeedupTableHasHM ensures the harmonic mean row is present.
func TestSpeedupTableHasHM(t *testing.T) {
	r := fastRunner()
	tabs, err := fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	last := tabs[0].Rows[len(tabs[0].Rows)-1]
	if last[0] != "HM" {
		t.Errorf("last row = %v, want HM", last)
	}
}
