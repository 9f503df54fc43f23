package workloads

import (
	"testing"

	"teasim/internal/isa"
)

// TestProgramsWellFormed statically validates every kernel at both scales:
// all direct control-flow targets land on aligned addresses inside the code
// segment, the entry point is valid, and exactly one reachable HALT class
// exists (the frontend relies on in-segment fetch).
func TestProgramsWellFormed(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for scale := 0; scale <= 1; scale++ {
				p := w.Build(scale)
				if len(p.Code) == 0 {
					t.Fatalf("scale %d: empty program", scale)
				}
				if p.InstAt(p.Entry) == nil {
					t.Fatalf("scale %d: entry %#x outside code", scale, p.Entry)
				}
				halts := 0
				for i := range p.Code {
					in := &p.Code[i]
					if in.Op == isa.OpHalt {
						halts++
					}
					// Direct branches and jumps carry absolute targets.
					switch in.Op {
					case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge,
						isa.OpBltu, isa.OpBgeu, isa.OpJmp, isa.OpCall:
						if p.InstAt(uint64(in.Imm)) == nil {
							t.Fatalf("scale %d: inst %d (%v) targets %#x outside code",
								scale, i, in, uint64(in.Imm))
						}
					}
					// Register fields must name real architectural registers.
					if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
						t.Fatalf("scale %d: inst %d has out-of-range register", scale, i)
					}
				}
				if halts == 0 {
					t.Fatalf("scale %d: no halt instruction", scale)
				}
			}
		})
	}
}

// TestDataSegmentsDisjointFromCode: initial data must not overlap the code
// segment (the pipeline fetches from the program image, not memory, so an
// overlap would silently diverge from the emulator).
func TestDataSegmentsDisjointFromCode(t *testing.T) {
	for _, w := range All() {
		p := w.Build(1)
		for _, seg := range p.Data {
			lo, hi := seg.Addr, seg.Addr+uint64(len(seg.Bytes))
			if lo < p.CodeEnd() && hi > p.CodeBase {
				t.Fatalf("%s: data segment [%#x,%#x) overlaps code [%#x,%#x)",
					w.Name, lo, hi, p.CodeBase, p.CodeEnd())
			}
		}
	}
}
