package minicc

import (
	"spe/internal/cc"
	"spe/internal/interp"
)

// Dispatch strategies for the minicc VM. The threaded engine dispatches
// through a per-opcode handler table (one indirect call per instruction, no
// monolithic switch) and runs the loop detector (loop.go); the switch
// engine is the fallback/baseline running the exact same (fused) code with
// no detector. Both are equivalence-tested corpus-wide.
const (
	DispatchThreaded = "threaded"
	DispatchSwitch   = "switch"
)

// opHandler executes the instruction at ins[i] and returns how many
// instructions it consumed (1, or 2 for a fused pair).
type opHandler func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int

// opHandlers is the threaded engine's handler table, indexed by Op.
var opHandlers [numOps]opHandler

func init() {
	opHandlers = [numOps]opHandler{
		OpConst: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execConst(&ins[i], regs)
			return 1
		},
		OpBin: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execBin(&ins[i], regs)
			return 1
		},
		OpUn: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			in := &ins[i]
			regs[in.Dst] = m.unop(in.UnOp, regs[in.A], in.Type)
			return 1
		},
		OpConv: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			in := &ins[i]
			regs[in.Dst] = convertVal(regs[in.A], in.Type, m)
			return 1
		},
		OpCopy: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			in := &ins[i]
			regs[in.Dst] = regs[in.A]
			return 1
		},
		OpAddrVar: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execAddrVar(f, &ins[i], regs, vars)
			return 1
		},
		OpLoad: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execLoad(&ins[i], regs)
			return 1
		},
		OpStore: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execStore(&ins[i], regs)
			return 1
		},
		OpCall: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execCall(f, &ins[i], regs, vars)
			return 1
		},
		OpArg: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.trap("unknown opcode %d", ins[i].Op)
			return 1
		},
		OpAddrIdx: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execAddrIdx(&ins[i], regs)
			return 1
		},
		OpConstBin: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execConst(&ins[i], regs)
			m.tick()
			m.execBin(&ins[i+1], regs)
			return 2
		},
		OpLoadBin: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execLoad(&ins[i], regs)
			m.tick()
			m.execBin(&ins[i+1], regs)
			return 2
		},
		OpConstStore: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			m.execConst(&ins[i], regs)
			m.tick()
			m.execStore(&ins[i+1], regs)
			return 2
		},
		OpCmpBr: func(m *vm, f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
			in := &ins[i]
			m.execBin(in, regs)
			// prime the terminator only when the fusion invariant still
			// holds live — hole patching can rebind Dst or Term.Cond
			// after fusion, in which case the terminator falls back to
			// reading the condition register
			if in.Dst == b.Term.Cond {
				m.brReady = true
				m.brTaken = !regs[in.Dst].IsZero()
			}
			return 1
		},
	}
}

// execInstrN is the switch engine's fused-aware step: it executes the
// instruction (or fused pair) at ins[i] and returns how many instructions
// it consumed. The fused cases mirror the threaded handlers exactly,
// including the step tick between the halves of a pair (a timeout at the
// second half must not mask a trap from the first).
func (m *vm) execInstrN(f *Func, b *Block, ins []Instr, i int, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) int {
	in := &ins[i]
	switch in.Op {
	case OpConstBin:
		m.execConst(in, regs)
		m.tick()
		m.execBin(&ins[i+1], regs)
		return 2
	case OpLoadBin:
		m.execLoad(in, regs)
		m.tick()
		m.execBin(&ins[i+1], regs)
		return 2
	case OpConstStore:
		m.execConst(in, regs)
		m.tick()
		m.execStore(&ins[i+1], regs)
		return 2
	case OpCmpBr:
		m.execBin(in, regs)
		if in.Dst == b.Term.Cond {
			m.brReady = true
			m.brTaken = !regs[in.Dst].IsZero()
		}
		return 1
	default:
		m.execInstr(f, in, regs, vars)
		return 1
	}
}
