package core

import (
	"testing"

	"github.com/vpir-sim/vpir/internal/vp"
	"github.com/vpir-sim/vpir/internal/workload"
)

// TestHybridReuseNeverStale is the regression test for two hybrid-machine
// bugs: reuse-buffer dependence pointers captured from value-speculative
// producer instances, and load entries inserted from predicted-address
// executions. Every reuse hit on the correct path must match the oracle.
func TestHybridReuseNeverStale(t *testing.T) {
	w, _ := workload.Get("compress")
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, HybridChoice(vp.Magic, SB, ME, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.debugReuse = func(e *robEntry) {
		if e.traceIdx >= 0 && e.reused && e.in.Dest != 0xFF {
			o, _ := m.oracle.at(e.traceIdx)
			want := o.result
			if e.result != want {
				t.Fatalf("WRONG REUSE at pc %#x line %d inst %d: reused %d want %d; op=%v src1val=%d src2val=%d final=[%v %v]",
					e.pc, m.prog.SrcLines[e.pc], e.traceIdx, e.result, want,
					e.in.Op, e.srcVal[0], e.srcVal[1], e.srcFinal[0], e.srcFinal[1])
			}
		}
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}
