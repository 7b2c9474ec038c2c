// Package minicc is an optimizing compiler for the cc C subset: a lowering
// pass to a three-address CFG IR, a pipeline of classic optimizations
// (constant folding and propagation, copy propagation, local CSE, dead code
// elimination, CFG simplification, store-to-load forwarding with a simple
// alias analysis, and loop-invariant code motion over dominator-identified
// natural loops), and a direct IR executor standing in for the emitted
// binary.
//
// minicc is the "compiler under test" of the reproduction: a registry of
// seeded bugs — modeled on the paper's reported GCC/Clang bug taxonomy
// (crash, wrong-code, and compile-time-performance bugs across frontend,
// middle-end, and backend components, §5.3) — can be activated per compiler
// "version", and the differential-testing harness hunts for them exactly
// the way the paper hunts real compiler bugs.
//
// Concurrency and ownership: Compiler values, Compile/Run, and Execute are
// safe for concurrent use on distinct inputs (they share only immutable
// state: the bug registry and site registry). The reuse layer is not: a
// Cache — IR templates keyed on the template program plus pooled VM state
// — is strictly single-goroutine, and the outcome of RunCached (including
// its Compile.Program) aliases cache-owned scratch that the next RunCached
// on the same cache recycles. Campaign workers hold one Cache each. A
// lowered Program references the source AST (Func.Decl, Globals, Statics
// initializers); executing it reads that AST live, so the variant's holes
// must stay patched to the intended filling until execution finishes.
package minicc

import (
	"fmt"
	"strings"

	"spe/internal/cc"
)

// Reg is a virtual register. Negative registers are invalid; register 0 is
// reserved as "none".
type Reg int

// NoReg marks an absent register operand.
const NoReg Reg = 0

// Op enumerates IR instruction opcodes.
type Op int

// IR opcodes.
const (
	OpConst   Op = iota // Dst = Const (Val)
	OpBin               // Dst = A <BinOp> B
	OpUn                // Dst = <UnOp> A
	OpConv              // Dst = (Type) A
	OpCopy              // Dst = A
	OpAddrVar           // Dst = &Sym
	OpLoad              // Dst = *A
	OpStore             // *A = B
	OpCall              // Dst = Call(Name, Args...)
	OpArg               // argument marker (unused; args are on OpCall)
	OpAddrIdx           // Dst = A + B * Scale (pointer indexing)

	// Superinstructions: adjacent-pair fusions applied to executable IR
	// just before it runs (fuse.go). Fusion rewrites only the first
	// instruction's Op — the second instruction stays in the stream
	// unchanged — so instruction indices (hole patch sites, trace
	// offsets) never move, and every operand field is read live at
	// execution time, which keeps hole patching composable with fusion.
	OpConstBin   // OpConst immediately followed by OpBin
	OpLoadBin    // OpLoad immediately followed by OpBin
	OpConstStore // OpConst immediately followed by OpStore
	OpCmpBr      // trailing OpBin comparison feeding this block's TermBr
)

// numOps sizes the threaded engine's opcode handler table.
const numOps = int(OpCmpBr) + 1

// Instr is one three-address instruction.
type Instr struct {
	Op    Op
	Dst   Reg
	A, B  Reg
	BinOp string // for OpBin
	UnOp  string // for OpUn
	// Val is the constant payload of OpConst.
	Val Const
	// Sym is the variable of OpAddrVar.
	Sym *cc.Symbol
	// Type governs arithmetic width/signedness and conversions.
	Type cc.Type
	// Name and Args are the callee and arguments of OpCall.
	Name string
	Args []Reg
	// Scale is the element-cell stride of OpAddrIdx.
	Scale int
	// Pos is the originating source position.
	Pos cc.Pos
}

// Const is a compile-time constant.
type Const struct {
	IsFloat bool
	I       int64
	F       float64
	// IsStr marks string-literal constants (Str holds the bytes).
	IsStr bool
	Str   string
}

// TermKind enumerates block terminators.
type TermKind int

// Terminator kinds.
const (
	TermJmp TermKind = iota
	TermBr
	TermRet
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	// Cond is the branch condition register (TermBr).
	Cond Reg
	// To is the jump target (TermJmp) or true target (TermBr).
	To *Block
	// Else is the false target (TermBr).
	Else *Block
	// Val is the returned register (TermRet; NoReg for void returns).
	Val Reg
	// HasVal distinguishes "return x" from "return".
	HasVal bool
	Pos    cc.Pos
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term
	// Label is a diagnostic name ("entry", "while.cond", ...).
	Label string
}

// Func is a compiled function.
type Func struct {
	Name   string
	Decl   *cc.FuncDecl
	Blocks []*Block
	Entry  *Block
	// NumRegs is one past the highest allocated register.
	NumRegs int
	// VarRegs maps register-promoted scalar locals to their registers.
	VarRegs map[*cc.Symbol]Reg
	// MemVars lists variables that live in memory (address taken, or
	// aggregate, or global).
	MemVars map[*cc.Symbol]bool
	// memList caches memVars' declaration-ordered result: frame objects
	// must allocate in an order independent of map iteration, because
	// object IDs are observable through pointer-to-integer conversion.
	memList   []*cc.Symbol
	memListed bool
}

// Program is a compiled translation unit.
type Program struct {
	Funcs   map[string]*Func
	Globals []*cc.VarDecl
	// Statics lists static locals: allocated once, initialized at program
	// start (their initializers are constant expressions), persistent
	// across calls.
	Statics []*cc.VarDecl
	Source  *cc.Program
	// fused records that superinstruction fusion has been applied; the
	// executor fuses unfused programs lazily, and the optimization passes
	// require fused programs to be unfused first (they predate fusion).
	fused bool
}

// NewReg allocates a fresh register.
func (f *Func) NewReg() Reg {
	f.NumRegs++
	return Reg(f.NumRegs)
}

// NewBlock appends a fresh block.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: len(f.Blocks), Label: label}
	f.Blocks = append(f.Blocks, b)
	return b
}

// succs returns a block's successor blocks as ss[:n], without allocating.
func (b *Block) succs() (ss [2]*Block, n int) {
	switch b.Term.Kind {
	case TermJmp:
		return [2]*Block{b.Term.To}, 1
	case TermBr:
		return [2]*Block{b.Term.To, b.Term.Else}, 2
	default:
		return ss, 0
	}
}

// String renders the function IR for diagnostics and golden tests.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d regs):\n", f.Name, f.NumRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d: ; %s\n", b.ID, b.Label)
		for _, in := range b.Instrs {
			sb.WriteString("  " + in.String() + "\n")
		}
		sb.WriteString("  " + b.Term.String() + "\n")
	}
	return sb.String()
}

func (in Instr) String() string {
	// fused superinstructions render as their base form: fusion is an
	// execution-time encoding, invisible to diagnostics, goldens, and the
	// -paranoid fresh-lowering comparison
	switch in.Op {
	case OpConst, OpConstBin, OpConstStore:
		if in.Val.IsStr {
			return fmt.Sprintf("r%d = const %q", in.Dst, in.Val.Str)
		}
		if in.Val.IsFloat {
			return fmt.Sprintf("r%d = const %g", in.Dst, in.Val.F)
		}
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Val.I)
	case OpBin, OpCmpBr:
		return fmt.Sprintf("r%d = r%d %s r%d [%s]", in.Dst, in.A, in.BinOp, in.B, typeName(in.Type))
	case OpUn:
		return fmt.Sprintf("r%d = %s r%d", in.Dst, in.UnOp, in.A)
	case OpConv:
		return fmt.Sprintf("r%d = conv r%d to %s", in.Dst, in.A, typeName(in.Type))
	case OpCopy:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpAddrVar:
		return fmt.Sprintf("r%d = &%s", in.Dst, in.Sym.Name)
	case OpLoad, OpLoadBin:
		return fmt.Sprintf("r%d = load r%d [%s]", in.Dst, in.A, typeName(in.Type))
	case OpStore:
		return fmt.Sprintf("store r%d <- r%d", in.A, in.B)
	case OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		if in.Dst != NoReg {
			return fmt.Sprintf("r%d = call %s(%s)", in.Dst, in.Name, strings.Join(args, ", "))
		}
		return fmt.Sprintf("call %s(%s)", in.Name, strings.Join(args, ", "))
	case OpAddrIdx:
		return fmt.Sprintf("r%d = r%d + r%d * %d", in.Dst, in.A, in.B, in.Scale)
	default:
		return fmt.Sprintf("op%d", in.Op)
	}
}

func (t Term) String() string {
	switch t.Kind {
	case TermJmp:
		return fmt.Sprintf("jmp b%d", t.To.ID)
	case TermBr:
		return fmt.Sprintf("br r%d ? b%d : b%d", t.Cond, t.To.ID, t.Else.ID)
	default:
		if t.HasVal {
			return fmt.Sprintf("ret r%d", t.Val)
		}
		return "ret"
	}
}

func typeName(t cc.Type) string {
	if t == nil {
		return "?"
	}
	return t.String()
}

// pure reports whether an instruction has no side effects and its result
// can be recomputed (eligible for CSE, DCE, and LICM).
func (in *Instr) pure() bool {
	switch in.Op {
	case OpConst, OpBin, OpUn, OpConv, OpCopy, OpAddrVar, OpAddrIdx:
		return true
	default:
		return false
	}
}
