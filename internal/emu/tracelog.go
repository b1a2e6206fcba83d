package emu

import (
	"github.com/vpir-sim/vpir/internal/isa"
)

// TraceLog is a compact columnar record of a stretch of correct-path
// execution, produced by the functional emulator. Sampled simulation
// collects one per detailed interval and hands it to the timing core, which
// reads it exactly as it reads its own execution-driven oracle:
//
//   - the VP_Magic oracle selection policy (§4.1.1 of the paper) needs the
//     correct result of an instruction at prediction time;
//   - classifying spurious branch squashes (a squash whose branch's final
//     outcome agrees with the original prediction);
//   - golden verification: the committed instruction stream of the timing
//     core must equal this log exactly.
type TraceLog struct {
	PC     []uint32
	Result []isa.Word // destination value (0 when no destination)
	Addr   []uint32   // effective address for memory ops
	Taken  []bool     // direction for control ops

	Halted bool // the program halted within the log
}

// Len returns the number of retired instructions in the log.
func (l *TraceLog) Len() int { return len(l.PC) }

// CollectTrace runs the program functionally for at most maxInsts
// instructions (0 = until halt) and returns the execution log, whose
// columns are sized for maxInsts up front.
func CollectTrace(c *CPU, maxInsts uint64) (*TraceLog, error) {
	log := &TraceLog{
		PC:     make([]uint32, 0, maxInsts),
		Result: make([]isa.Word, 0, maxInsts),
		Addr:   make([]uint32, 0, maxInsts),
		Taken:  make([]bool, 0, maxInsts),
	}
	for !c.Halted && (maxInsts == 0 || uint64(log.Len()) < maxInsts) {
		if err := c.Step(); err != nil {
			return nil, err
		}
		t := &c.trace
		log.PC = append(log.PC, t.PC)
		log.Result = append(log.Result, t.DestVal)
		log.Addr = append(log.Addr, t.Addr)
		log.Taken = append(log.Taken, t.Taken)
	}
	log.Halted = c.Halted
	return log, nil
}
