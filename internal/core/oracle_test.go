package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/vpir-sim/vpir/internal/asm"
	"github.com/vpir-sim/vpir/internal/core"
	"github.com/vpir-sim/vpir/internal/emu"
	"github.com/vpir-sim/vpir/internal/prog"
	"github.com/vpir-sim/vpir/internal/technique"
	"github.com/vpir-sim/vpir/internal/workload"
)

// techniqueConfigs resolves every registered technique at its defaults.
func techniqueConfigs(t *testing.T) map[string]core.Config {
	t.Helper()
	cfgs := map[string]core.Config{}
	for _, name := range technique.Names() {
		cfg, err := technique.Resolve(name, technique.Knobs{})
		if err != nil {
			t.Fatal(err)
		}
		cfgs[name] = cfg
	}
	return cfgs
}

// assembleFresh assembles a workload's source itself, bypassing
// workload.Load's per-process program cache.
func assembleFresh(t *testing.T, bench string, scale int) *prog.Program {
	t.Helper()
	w, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(bench+".s", w.Source(scale))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// heapBytes returns the bytes allocated on the heap while fn runs.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOracleFootprintBounded guards the execution-driven oracle: building
// and running a machine to halt allocates about the same on gcc ×8 as on
// gcc ×1, so no buffer that grows with the program's length (such as a
// whole-program trace, 17 bytes per instruction) can come back unnoticed.
func TestOracleFootprintBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs gcc x8 to completion")
	}
	const slack = 256 << 10
	var bytes [2]uint64
	for i, scale := range []int{1, 8} {
		p := assembleFresh(t, "gcc", scale)
		var runErr error
		bytes[i] = heapBytes(func() {
			m, err := core.New(p, core.DefaultConfig(), 0)
			if err == nil {
				err = m.Run(0)
			}
			runErr = err
		})
		if runErr != nil {
			t.Fatalf("gcc x%d: %v", scale, runErr)
		}
	}
	t.Logf("New+Run heap bytes: gcc x1 %d, gcc x8 %d", bytes[0], bytes[1])
	if bytes[1] > bytes[0]+slack {
		t.Errorf("gcc x8 allocates %d bytes, gcc x1 %d: more than %d apart", bytes[1], bytes[0], slack)
	}
}

// TestOracleWindowBounded checks the ring's occupancy every cycle under
// every registered technique: it never exceeds the ring, the ring is the
// smallest power of two above the ROB size, and every committed
// instruction's entry has been released.
func TestOracleWindowBounded(t *testing.T) {
	for _, bench := range []string{"go", "compress"} {
		w, err := workload.Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Load(1)
		if err != nil {
			t.Fatal(err)
		}
		for name, cfg := range techniqueConfigs(t) {
			m, err := core.New(p, cfg, 30_000)
			if err != nil {
				t.Fatal(err)
			}
			peak := 0
			m.OnCycle(func(uint64) {
				live, size, _ := m.OracleWindow()
				if live > size || live < 0 {
					t.Fatalf("%s/%s: %d live oracle entries in a ring of %d", bench, name, live, size)
				}
				peak = max(peak, live)
			})
			if err := m.Run(0); err != nil {
				t.Fatalf("%s/%s: %v", bench, name, err)
			}
			_, size, released := m.OracleWindow()
			if size <= cfg.ROBSize || size > 2*cfg.ROBSize {
				t.Errorf("%s/%s: ring of %d for a %d-entry ROB", bench, name, size, cfg.ROBSize)
			}
			if got := m.Stats().Committed; uint64(released) != got {
				t.Errorf("%s/%s: %d entries released, %d committed", bench, name, released, got)
			}
			if peak == 0 {
				t.Errorf("%s/%s: oracle window never held an entry", bench, name)
			}
		}
	}
}

// faultAfter is a program whose functional execution faults (unknown
// syscall 99) after a loop of straight-line work, far past the first fill
// of the oracle ring.
const faultAfter = `
        .text
main:   addiu $t0, $zero, 200
loop:   addiu $t1, $t1, 3
        addu  $t2, $t2, $t1
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        addiu $v0, $zero, 99
        syscall
        addiu $v0, $zero, 10
        syscall
`

// TestFunctionalFaultSurfacesFromRun: a program that faults at its k-th
// instruction builds, commits exactly the k instructions before the fault
// and then fails Run with an error wrapping *emu.Fault, under every
// technique; Reset after the faulted run reproduces a fresh machine's run.
// A program that faults on its first instruction fails in New.
func TestFunctionalFaultSurfacesFromRun(t *testing.T) {
	p, err := asm.Assemble("fault.s", faultAfter)
	if err != nil {
		t.Fatal(err)
	}
	cpu := emu.New(p)
	if _, err := cpu.Run(0); err == nil {
		t.Fatal("the emulator ran the faulting program without a fault")
	}
	k := cpu.InstCount
	if k < 512 {
		t.Fatalf("fault at instruction %d: too early to test a later ring fill", k)
	}

	type outcome struct {
		stats  core.Stats
		output string
		err    string
	}
	run := func(m *core.Machine) outcome {
		err := m.Run(0)
		var f *emu.Fault
		if !errors.As(err, &f) {
			t.Fatalf("Run returned %v, want an error wrapping *emu.Fault", err)
		}
		return outcome{m.Stats(), m.Output(), err.Error()}
	}
	for name, cfg := range techniqueConfigs(t) {
		m, err := core.New(p, cfg, 0)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		first := run(m)
		if first.stats.Committed != k {
			t.Errorf("%s: %d instructions committed before the fault, want %d", name, first.stats.Committed, k)
		}
		if err := m.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if again := run(m); !reflect.DeepEqual(again, first) {
			t.Errorf("%s: Reset after a faulted run differs from the fresh run\n reset: %+v\n fresh: %+v", name, again, first)
		}
	}

	p0, err := asm.Assemble("fault0.s", ".text\nmain: syscall\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.New(p0, core.DefaultConfig(), 0)
	var f *emu.Fault
	if !errors.As(err, &f) {
		t.Errorf("New on a program faulting at its first instruction returned %v, want an *emu.Fault", err)
	}
}

// mallocs returns the number of heap allocations fn makes. Like
// testing.AllocsPerRun it runs on one P, so background goroutines do not
// allocate while fn is measured.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestResetZeroAllocs pins the machine-reuse contract of the sweep workers
// and the server pool: rewinding a machine under its own configuration,
// the functional emulator included, allocates nothing, for every
// registered technique — both the Reset right after a full run and
// repeated ones.
func TestResetZeroAllocs(t *testing.T) {
	w, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range techniqueConfigs(t) {
		m, err := core.New(p, cfg, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			var resetErr error
			if n := mallocs(func() { resetErr = m.Reset(cfg) }); n != 0 || resetErr != nil {
				t.Errorf("%s: round %d: Reset after a run made %d allocations (err %v)", name, round, n, resetErr)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.Reset(cfg); err != nil {
				panic(fmt.Sprintf("%s: %v", name, err))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Reset averages %v allocations", name, allocs)
		}
	}
}
