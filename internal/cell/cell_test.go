package cell

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/sample"
	"github.com/vpir-sim/vpir/internal/workload"
)

// TestPersistedKeyForms pins the key spellings that address durable store
// entries and route cells across a fleet. Changing any of them orphans
// every stored result, so they are spelled out literally here.
func TestPersistedKeyForms(t *testing.T) {
	cfg := core.IRChoice(false)
	plan := sample.Plan{Interval: 100, Every: 4, Warmup: 10}
	id := ID{Bench: "compress", Scale: 2, MaxInsts: 20_000, Cfg: cfg}
	whole, interval := id, id
	whole.Sample = &Sample{Plan: plan, Index: WholeProgram}
	interval.Sample = &Sample{Plan: plan, Index: 3}
	for _, c := range []struct{ name, got, want string }{
		{"run", id.Key(), "compress|2|20000|" + cfg.Key()},
		{"whole-sampled", whole.Key(), "compress|2|20000|" + cfg.Key() + "|sample:i100.e4.w10"},
		{"interval", interval.Key(), "compress|2|20000|" + cfg.Key() + "|sample:i100.e4.w10|k3"},
		{"trace", id.TraceKey(512, 10_000, 256), "trace|compress|2|20000|512|10000|256|" + cfg.Key()},
		{"coordinator", interval.CoordKey(), "cell|compress|2|20000|" + cfg.Key() + "|sample:i100.e4.w10|k3"},
	} {
		if c.got != c.want {
			t.Errorf("%s key:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}

// idle is a run that leaves the machine as the set handed it over.
func idle(*core.Machine) error { return nil }

// TestMachinesCap: however many distinct programs a worker sees, its set
// never holds more than machineCap machines.
func TestMachinesCap(t *testing.T) {
	s := NewMachines()
	for scale := 1; scale <= 2; scale++ {
		for _, b := range workload.Names() {
			id := ID{Bench: b, Scale: scale, MaxInsts: 1_000, Cfg: core.DefaultConfig()}
			if err := s.Plain(id, idle); err != nil {
				t.Fatal(err)
			}
			if len(s.m) > machineCap {
				t.Fatalf("%d machines after %s at scale %d, cap %d", len(s.m), b, scale, machineCap)
			}
		}
	}
	if len(s.m) != machineCap {
		t.Fatalf("set holds %d machines after %d programs, want the cap %d", len(s.m), 2*len(workload.Names()), machineCap)
	}
}

// TestMachinesReuseAcrossConfigs: one program's machine is rewound to each
// new configuration rather than rebuilt.
func TestMachinesReuseAcrossConfigs(t *testing.T) {
	s := NewMachines()
	var seen []*core.Machine
	for _, cfg := range []core.Config{core.DefaultConfig(), core.IRChoice(false)} {
		id := ID{Bench: "compress", Scale: 1, MaxInsts: 5_000, Cfg: cfg}
		if err := s.Plain(id, func(m *core.Machine) error {
			seen = append(seen, m)
			if m.Config() != cfg {
				t.Errorf("machine handed over under %s, want %s", m.Config().Name(), cfg.Name())
			}
			return Drive(context.Background(), m)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if seen[0] != seen[1] {
		t.Fatal("second configuration got a new machine")
	}
}

// TestMachinesPanicDropsOnlyItsMachine: a panicking run comes back as an
// error naming the cell, its machine is rebuilt on next use, and the
// worker's other machines are untouched.
func TestMachinesPanicDropsOnlyItsMachine(t *testing.T) {
	s := NewMachines()
	compress := ID{Bench: "compress", Scale: 1, MaxInsts: 5_000, Cfg: core.DefaultConfig()}
	gobench := ID{Bench: "go", Scale: 1, MaxInsts: 5_000, Cfg: core.DefaultConfig()}
	grab := func(id ID) *core.Machine {
		var got *core.Machine
		if err := s.Plain(id, func(m *core.Machine) error { got = m; return nil }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	c1, g1 := grab(compress), grab(gobench)

	err := s.Plain(compress, func(*core.Machine) error { panic("rogue index out of range") })
	if err == nil {
		t.Fatal("panic was not converted to an error")
	}
	for _, want := range []string{"panic", "rogue index", "compress"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("recovered error %q missing %q", err, want)
		}
	}
	if _, ok := s.m[slot{"compress", 1, 5_000, false}]; ok {
		t.Fatal("panicked machine kept in the set")
	}
	if grab(gobench) != g1 {
		t.Fatal("another cell's machine was dropped by the panic")
	}
	if grab(compress) == c1 {
		t.Fatal("panicked machine handed out again")
	}
}

// TestMachinesPlainAndRestoredNeverMix: a machine placed on a checkpoint is
// never handed to a plain cell of the same program, nor a plain machine to
// a restored cell.
func TestMachinesPlainAndRestoredNeverMix(t *testing.T) {
	const maxInsts = 8_000
	cfg := core.DefaultConfig()
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	plan := sample.Plan{Interval: 2_000}
	ff, err := sample.FastForward(p, cfg, plan, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	ck, warm, measured, err := ff.IntervalSpec(1)
	if err != nil {
		t.Fatal(err)
	}

	s := NewMachines()
	id := ID{Bench: "compress", Scale: 1, MaxInsts: maxInsts, Cfg: cfg}
	sampled := id
	sampled.Sample = &Sample{Plan: plan, Index: 1}
	plain := func() (got *core.Machine) {
		if err := s.Plain(id, func(m *core.Machine) error { got = m; return Drive(context.Background(), m) }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	restored := func() (got *core.Machine) {
		if err := s.Restored(sampled, p, ck, warm+measured, func(m *core.Machine) error {
			got = m
			_, err := sample.DriveInterval(context.Background(), m, ck, warm)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	p1 := plain()
	r1 := restored()
	if r1 == p1 {
		t.Fatal("plain machine handed to a restored cell")
	}
	if p2 := plain(); p2 != p1 {
		t.Fatal("plain cell did not get its own machine back")
	}
	if r2 := restored(); r2 != r1 {
		t.Fatal("restored cell did not get its own machine back")
	}
	if got := plain().Stats().Committed; got != maxInsts {
		t.Fatalf("plain machine after restored runs committed %d, want the full %d", got, maxInsts)
	}
}

// TestDriveObservesContext: a cancelled context stops the drive before the
// machine halts, with the context's error.
func TestDriveObservesContext(t *testing.T) {
	s := NewMachines()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Plain(ID{Bench: "compress", Scale: 1, Cfg: core.DefaultConfig()}, func(m *core.Machine) error {
		err := Drive(ctx, m)
		if m.Halted() {
			t.Error("machine ran to its halt under a cancelled context")
		}
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
