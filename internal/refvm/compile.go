package refvm

import (
	"fmt"

	"spe/internal/cc"
)

// This file lowers an analyzed cc.Program to the oracle bytecode. The
// compiler's one hard requirement is OBSERVATIONAL IDENTITY with the
// tree-walking reference interpreter (internal/interp): same output bytes,
// same exit status, same undefined-behavior verdict (kind and position),
// same abort/limit outcomes, and — because the campaign derives the
// compiled binary's step budget from the oracle's step count — the same
// Result.Steps for every defined execution. The compilation rules below
// therefore mirror interp's eval/exec recursion node for node:
//
//   - every expression/statement node contributes exactly one step, taken
//     BEFORE its children, encoded as a pre-increment on the first
//     instruction emitted under the node (instr.step);
//   - lvalue positions contribute no step for the lvalue node itself
//     (interp.machine.lvalue never calls stepNode);
//   - evalDiscard's quirks are preserved: a discarded call steps once and
//     evaluates its arguments, a discarded comma steps for its elements
//     but not for the comma node;
//   - goto compiles to a direct jump to the label's inner statement (the
//     LabeledStmt wrapper's own step sits before the jump target, so a
//     goto arrival pays one step — the inner statement's — exactly like
//     the tree-walker's seek, which skips statements without stepping);
//   - printf arguments compile as separate segments that the incremental
//     formatter jumps between, so arguments beyond the format string's
//     conversions are never evaluated (no steps, no side effects).
//
// Every label target flushes pending steps first (bindLabel), so loop
// back-edges and goto arrivals never replay a predecessor's step.

// Opcodes.
const (
	opStep uint8 = iota
	opConst
	opStr
	opLoadVar
	opAddrVar
	opLoadPtr
	opLoadPtrKeep
	opCheckPtr
	opIndexAddr
	opMemberAddr
	opBinop
	opNot
	opNeg
	opBitNot
	opIncDec
	opConv
	opJmp
	opJz
	opJnz
	opBool
	opPop
	opStoreConv
	opStructCopy
	opCallV
	opCallD
	opRetVal
	opRetNone
	opGotoEscape
	opAllocVar
	opAllocGlobal
	opInitCell
	opZeroFill
	opZeroAll
	opStaticBegin
	opStaticBind
	opPrintfBegin
	opPrintfFeed
	opPrintfNoArg
	opAbort
	opExit
	opUB
	opLimit
	opCallMain
	opHalt

	// Superinstructions: fuseCode rewrites the first opcode of a hot
	// adjacent pair in place (the second instruction stays in the stream
	// as the operand word, read via code[pc+1] and skipped with pc+=2),
	// so every jump target and call return address keeps its meaning.
	opLoadVarBinop // scalar opLoadVar + opBinop   (a = varRef; next.a = binop code)
	opConstBinop   // opConst + opBinop            (a = const;  next.a = binop code)
	opBinopJz      // opBinop + opJz               (a = binop code; next.a = target)
	opBinopJnz     // opBinop + opJnz              (a = binop code; next.a = target)
	opConstStore   // opConst + opStoreConv        (a = const;  next.a = conv tidx)

	nOps // count, sizes the threaded handler table
)

// opIncDec flag bits (instr.b).
const (
	incDec  = 1 << 0 // decrement instead of increment
	incPost = 1 << 1 // push the old value instead of the new one
	incAgg  = 1 << 2 // the loaded type is an aggregate (instr.a = elem tidx)
)

// instr is one bytecode instruction: 16 bytes, two int32 operands, a
// pre-step count, and a position-table index for UB/limit reporting.
type instr struct {
	op   uint8
	step uint8
	a    int32
	b    int32
	pos  int32
}

// binop operator codes (instr.a of opBinop): the VM's arithmetic dispatch
// switches on these directly; binopNames (same order) is kept only for
// cold-path UB message formatting.
const (
	bopAdd int32 = iota
	bopSub
	bopMul
	bopDiv
	bopMod
	bopShl
	bopShr
	bopAnd
	bopOr
	bopXor
	bopEq
	bopNe
	bopLt
	bopGt
	bopLe
	bopGe
)

var binopNames = []string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "==", "!=", "<", ">", "<=", ">="}

var binopCode = func() map[string]int32 {
	m := make(map[string]int32, len(binopNames))
	for i, s := range binopNames {
		m[s] = int32(i)
	}
	return m
}()

// varRef is the side-table entry behind opLoadVar/opAddrVar: which slot
// the referenced variable lives in, and what to allocate if the slot is
// still empty (the tree-walker's lazy allocation for declarations jumped
// over by goto). Hole patching rewrites these entries in place — they are
// the bytecode analogue of minicc's IR patch sites.
type varRef struct {
	global bool
	slot   int32
	allocT int32 // sym.Type, for lazy allocation
	elem   int32 // elemOf(sym.Type), the address-of/decay pointee
	name   int32
}

// declInfo backs opAllocVar/opAllocGlobal.
type declInfo struct {
	slot   int32
	allocT int32
	name   int32
}

// staticInfo backs opStaticBegin/opStaticBind.
type staticInfo struct {
	sslot  int32 // static slot (persists across calls within a run)
	lslot  int32 // frame slot the static binds into
	allocT int32
	name   int32
}

// paramInfo describes one function parameter for the call sequence.
type paramInfo struct {
	slot   int32 // -1: parameter has no symbol, allocate but don't bind
	allocT int32
	convT  int32 // valueType(param type): argument conversion target
	zero   int32 // const index of zeroOf(convT), for missing arguments
	name   int32
}

// fnCode is one compiled function. handlers is the threaded-dispatch
// function-pointer table, parallel to code, built once at compile time
// (specialized per instruction where operand kinds are provable).
// selfUpdates maps the pc of each self-update statement's read to the
// statement.
type fnCode struct {
	name        string
	code        []instr
	handlers    []opFunc
	params      []paramInfo
	nslots      int32
	selfUpdates map[int32]selfUpdate
}

// selfUpdate is a self-update statement, read at some pc: a discarded
// `x += e`, `x -= e`, `x = x + e`, `x = x - e` or `x = e + x` whose
// lvalue x is a plain int or long variable. The value read flows only
// into the add or subtract whose result the opStoreConv at pc store
// writes back, and the lvalue address sits depth slots below the operand
// stack's top at the read. The loop detector lets a counter be read
// there when that address is the counter's own cell (loop.go). Holes are
// patched per variant, so a read is recorded whatever variable the
// template binds: `x = y + 1` compiles like `x = x + 1`.
type selfUpdate struct {
	store, depth int32
}

// program is a compiled translation unit plus its side tables. The varRefs
// table is deliberately mutable: hole patching rewrites entries between
// runs, everything else is immutable after compilation.
type program struct {
	tt      *typeTable
	fns     []*fnCode
	entry   *fnCode // global initialization + call-main sequence
	consts  []Value
	varRefs []varRef
	decls   []declInfo
	statics []staticInfo
	strs    []string
	names   []string
	msgs    []string
	poss    []cc.Pos

	nGlobals int32
	nStatics int32
	mainFn   int32 // -1 when the program has no main

	nameForged int32
	nameStrlit int32
	nameIdx    map[string]int32

	// slotOf/gslotOf expose the deterministic symbol-to-slot assignment
	// (dense by Symbol.ID) for hole patching.
	slotOf  []int32
	gslotOf []int32

	// hole metadata (empty when compiled without hole tracking): for each
	// hole, the varRef indices its use compiled into, and the interned
	// type every candidate symbol must match for in-place patching.
	holeSites [][]int32
	holeT     []int32
}

type gotoFix struct {
	at    int
	label string
}

type compiler struct {
	p      *program
	prog   *cc.Program
	holeOf map[*cc.Ident]int

	// symbol slot assignment, dense by Symbol.ID
	slotOf  []int32
	gslotOf []int32
	sslotOf []int32
	fnIdxOf map[string]int32

	// interning memos
	posIdx   map[cc.Pos]int32
	constIdx map[Value]int32
	nameIdx  map[string]int32
	msgIdx   map[string]int32
	strIdx   map[*cc.StringLit]int32
	declIdx  map[*cc.VarDecl]int32
	statIdx  map[*cc.VarDecl]int32

	// current function state
	code          []instr
	pending       int
	breaks        []*[]int
	conts         []*[]int
	pendingBreaks []int
	labels        map[string]int
	gotos         []gotoFix
	selfUpdates   map[int32]selfUpdate
}

// compileProgram lowers prog. holes, when non-nil, are the skeleton's
// hole use-sites (skeleton.Instance.HoleIdents): the compiler records the
// varRef entries each hole feeds so Cache can patch rebindings in place.
func compileProgram(prog *cc.Program, holes []*cc.Ident) *program {
	return compileProgramOpt(prog, holes, false)
}

// compileProgramOpt additionally exposes the superinstruction fuser as a
// switch (noFuse) so tests can pin fused against unfused execution.
func compileProgramOpt(prog *cc.Program, holes []*cc.Ident, noFuse bool) *program {
	c := &compiler{
		p:        &program{tt: newTypeTable(), mainFn: -1},
		prog:     prog,
		holeOf:   make(map[*cc.Ident]int, len(holes)),
		fnIdxOf:  make(map[string]int32),
		posIdx:   make(map[cc.Pos]int32),
		constIdx: make(map[Value]int32),
		nameIdx:  make(map[string]int32),
		msgIdx:   make(map[string]int32),
		strIdx:   make(map[*cc.StringLit]int32),
		declIdx:  make(map[*cc.VarDecl]int32),
		statIdx:  make(map[*cc.VarDecl]int32),
	}
	for i, id := range holes {
		c.holeOf[id] = i
	}
	c.p.holeSites = make([][]int32, len(holes))
	c.p.holeT = make([]int32, len(holes))
	c.p.nameForged = c.name("forged")
	c.p.nameStrlit = c.name("strlit")

	// slot assignment, in Symbol.ID order so it is deterministic and so
	// object allocation order (hence object IDs, which are program-visible
	// through pointer-to-int conversion and %p) matches the tree-walker.
	nsyms := len(prog.Symbols)
	c.slotOf = make([]int32, nsyms)
	c.gslotOf = make([]int32, nsyms)
	c.sslotOf = make([]int32, nsyms)
	perFn := make(map[int]int32)
	for _, sym := range prog.Symbols {
		if sym.FuncIdx < 0 {
			c.gslotOf[sym.ID] = c.p.nGlobals
			c.p.nGlobals++
		} else {
			c.slotOf[sym.ID] = perFn[sym.FuncIdx]
			perFn[sym.FuncIdx]++
		}
		if sym.Storage == cc.StorageStatic {
			c.sslotOf[sym.ID] = c.p.nStatics
			c.p.nStatics++
		}
	}

	// functions (bodies only: sema already excludes prototypes). The name
	// map mirrors the tree-walker's funcs map: later definitions shadow
	// earlier ones.
	for i, fd := range prog.Funcs {
		c.fnIdxOf[fd.Name] = int32(i)
	}
	for fi, fd := range prog.Funcs {
		fn := &fnCode{name: fd.Name, nslots: perFn[fi]}
		for _, prm := range fd.Params {
			pi := paramInfo{slot: -1, allocT: c.tidx(prm.Type), name: c.name(prm.Name)}
			vt := scalarTypeOf(prm.Type)
			pi.convT = c.tidx(vt)
			pi.zero = c.constOf(c.zeroOf(vt))
			if prm.Sym != nil {
				pi.slot = c.slotOf[prm.Sym.ID]
			}
			fn.params = append(fn.params, pi)
		}
		c.beginFunc()
		// the body block itself is never exec'd (machine.call passes it
		// straight to execBlock), so it contributes no step of its own
		for _, s := range fd.Body.List {
			c.compileStmt(s)
		}
		c.emit(opRetNone, 0, 0, fd.Pos)
		c.finishFunc()
		fn.code = c.code
		fn.selfUpdates = c.selfUpdates
		c.p.fns = append(c.p.fns, fn)
	}
	if mi, ok := c.fnIdxOf["main"]; ok {
		c.p.mainFn = mi
	}

	// entry: global initialization in declaration order, then main.
	c.beginFunc()
	for _, d := range prog.File.Decls {
		if vd, ok := d.(*cc.VarDecl); ok {
			c.compileGlobalDecl(vd)
		}
	}
	c.emit(opCallMain, 0, 0, cc.Pos{})
	c.emit(opHalt, 0, 0, cc.Pos{})
	c.p.entry = &fnCode{name: "<entry>", code: c.code}
	c.p.nameIdx = c.nameIdx
	c.p.slotOf = c.slotOf
	c.p.gslotOf = c.gslotOf
	if !noFuse {
		for _, fn := range c.p.fns {
			fuseCode(c.p, fn)
		}
		fuseCode(c.p, c.p.entry)
	}
	// handler tables come last: they specialize on the final instruction
	// stream (post-fusion) and the complete varRefs table.
	buildHandlers(c.p)
	return c.p
}

// internName interns a name post-compilation (hole patching may introduce
// candidate symbols whose names the original filling never printed).
func (p *program) internName(s string) int32 {
	if i, ok := p.nameIdx[s]; ok {
		return i
	}
	i := int32(len(p.names))
	p.names = append(p.names, s)
	p.nameIdx[s] = i
	return i
}

// ---------------------------------------------------------------- interning

func (c *compiler) tidx(t cc.Type) int32 { return c.p.tt.intern(t) }

func (c *compiler) pos(p cc.Pos) int32 {
	if i, ok := c.posIdx[p]; ok {
		return i
	}
	i := int32(len(c.p.poss))
	c.p.poss = append(c.p.poss, p)
	c.posIdx[p] = i
	return i
}

func (c *compiler) constOf(v Value) int32 {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := int32(len(c.p.consts))
	c.p.consts = append(c.p.consts, v)
	c.constIdx[v] = i
	return i
}

func (c *compiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.p.names))
	c.p.names = append(c.p.names, s)
	c.nameIdx[s] = i
	return i
}

func (c *compiler) msg(s string) int32 {
	if i, ok := c.msgIdx[s]; ok {
		return i
	}
	i := int32(len(c.p.msgs))
	c.p.msgs = append(c.p.msgs, s)
	c.msgIdx[s] = i
	return i
}

// zeroOf mirrors interp's zeroOf, quirks included: the zero of a struct
// scalar-type is an INTEGER value carrying the struct's type index.
func (c *compiler) zeroOf(t cc.Type) Value {
	ti := c.tidx(t)
	if isFloatTidx(ti) {
		return c.p.tt.mkFloat(0, ti)
	}
	if pt, ok := t.(*cc.PointerType); ok {
		return mkPtr(0, 0, c.tidx(pt.Elem))
	}
	return c.p.tt.mkInt(0, ti)
}

// ---------------------------------------------------------------- emission

func (c *compiler) beginFunc() {
	c.code = nil
	c.pending = 0
	c.breaks = nil
	c.conts = nil
	c.labels = make(map[string]int)
	c.gotos = nil
	c.selfUpdates = nil
}

// step schedules one evaluation step (interp's stepNode) to be charged by
// the next emitted instruction.
func (c *compiler) step() { c.pending++ }

func (c *compiler) emit(op uint8, a, b int32, pos cc.Pos) int {
	for c.pending > 255 {
		c.code = append(c.code, instr{op: opStep, step: 255})
		c.pending -= 255
	}
	c.code = append(c.code, instr{op: op, step: uint8(c.pending), a: a, b: b, pos: c.pos(pos)})
	c.pending = 0
	return len(c.code) - 1
}

// bindLabel returns the current address as a jump target, flushing pending
// steps first so arriving via the target never replays them.
func (c *compiler) bindLabel() int {
	if c.pending > 0 {
		for c.pending > 255 {
			c.code = append(c.code, instr{op: opStep, step: 255})
			c.pending -= 255
		}
		c.code = append(c.code, instr{op: opStep, step: uint8(c.pending)})
		c.pending = 0
	}
	return len(c.code)
}

func (c *compiler) patch(at int, target int) { c.code[at].a = int32(target) }

func (c *compiler) emitUB(kind int32, msg string, pos cc.Pos) {
	c.emit(opUB, kind, c.msg(msg), pos)
}

// finishFunc resolves goto fixups: labels compile to direct jumps, gotos
// to labels the function does not contain become the tree-walker's
// "escaped function" UB at the frame's call position.
func (c *compiler) finishFunc() {
	for _, g := range c.gotos {
		in := &c.code[g.at]
		if addr, ok := c.labels[g.label]; ok {
			in.op = opJmp
			in.a = int32(addr)
		} else {
			in.op = opGotoEscape
			in.a = c.name(g.label)
		}
	}
}

// ---------------------------------------------------------------- statements

func (c *compiler) compileStmt(st cc.Stmt) {
	c.step() // exec's stepNode, charged before any child
	switch st := st.(type) {
	case *cc.BlockStmt:
		for _, s := range st.List {
			c.compileStmt(s)
		}
	case *cc.DeclStmt:
		for _, d := range st.Decls {
			c.compileLocalDecl(d)
		}
	case *cc.ExprStmt:
		c.compileDiscard(st.X)
	case *cc.EmptyStmt:
		// the step rides on the next instruction
	case *cc.IfStmt:
		c.compileExpr(st.Cond)
		jz := c.emit(opJz, 0, 0, st.Pos)
		c.compileStmt(st.Then)
		if st.Else != nil {
			jend := c.emit(opJmp, 0, 0, st.Pos)
			c.patch(jz, c.bindLabel())
			c.compileStmt(st.Else)
			c.patch(jend, c.bindLabel())
		} else {
			c.patch(jz, c.bindLabel())
		}
	case *cc.WhileStmt:
		lcond := c.bindLabel()
		c.compileExpr(st.Cond)
		jz := c.emit(opJz, 0, 0, st.Pos)
		c.loopBody(st.Body, lcond, st.Pos)
		c.patch(jz, c.bindLabel())
		c.patchBreaks(len(c.code))
	case *cc.DoWhileStmt:
		lbody := c.bindLabel()
		brks, cnts := c.pushLoop()
		c.compileStmt(st.Body)
		lcond := c.bindLabel()
		c.compileExpr(st.Cond)
		c.emit(opJnz, int32(lbody), 0, st.Pos)
		c.popLoop(brks, cnts, len(c.code), lcond)
	case *cc.ForStmt:
		if st.Init != nil {
			c.compileStmt(st.Init)
		}
		lcond := c.bindLabel()
		jz := -1
		if st.Cond != nil {
			c.compileExpr(st.Cond)
			jz = c.emit(opJz, 0, 0, st.Pos)
		}
		brks, cnts := c.pushLoop()
		c.compileStmt(st.Body)
		lpost := c.bindLabel()
		if st.Post != nil {
			c.compileDiscard(st.Post)
		}
		c.emit(opJmp, int32(lcond), 0, st.Pos)
		lend := c.bindLabel()
		if jz >= 0 {
			c.patch(jz, lend)
		}
		c.popLoop(brks, cnts, lend, lpost)
	case *cc.ReturnStmt:
		if st.X != nil {
			c.compileExpr(st.X)
			c.emit(opRetVal, 0, 0, st.Pos)
		} else {
			c.emit(opRetNone, 0, 0, st.Pos)
		}
	case *cc.BreakStmt:
		// a break with no enclosing loop unwinds to the function end in
		// the tree-walker (no flow handler consumes it), i.e. a valueless
		// return; inside a loop it jumps to the loop end.
		if n := len(c.breaks); n > 0 {
			at := c.emit(opJmp, 0, 0, st.Pos)
			*c.breaks[n-1] = append(*c.breaks[n-1], at)
		} else {
			c.emit(opRetNone, 0, 0, st.Pos)
		}
	case *cc.ContinueStmt:
		if n := len(c.conts); n > 0 {
			at := c.emit(opJmp, 0, 0, st.Pos)
			*c.conts[n-1] = append(*c.conts[n-1], at)
		} else {
			c.emit(opRetNone, 0, 0, st.Pos)
		}
	case *cc.GotoStmt:
		at := c.emit(opJmp, 0, 0, st.Pos)
		c.gotos = append(c.gotos, gotoFix{at: at, label: st.Label})
	case *cc.LabeledStmt:
		// the wrapper's step flushes BEFORE the jump target: goto arrival
		// pays only the inner statement's step, exactly like the
		// tree-walker's seek mode, while normal fall-through pays both.
		addr := c.bindLabel()
		if _, exists := c.labels[st.Label]; !exists {
			// first declaration wins, like the tree-walker's findLabel
			c.labels[st.Label] = addr
		}
		c.compileStmt(st.Stmt)
	default:
		panic(fmt.Sprintf("refvm: unknown statement %T", st))
	}
}

func (c *compiler) pushLoop() (*[]int, *[]int) {
	brks, cnts := new([]int), new([]int)
	c.breaks = append(c.breaks, brks)
	c.conts = append(c.conts, cnts)
	return brks, cnts
}

func (c *compiler) popLoop(brks, cnts *[]int, breakTo, contTo int) {
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.conts = c.conts[:len(c.conts)-1]
	for _, at := range *brks {
		c.patch(at, breakTo)
	}
	for _, at := range *cnts {
		c.patch(at, contTo)
	}
}

// loopBody compiles a while-style body whose continue target is the
// condition label; break fixups are stashed in pendingBreaks because the
// break target is only known after the caller patches the cond's jz.
func (c *compiler) loopBody(body cc.Stmt, lcond int, pos cc.Pos) {
	brks, cnts := c.pushLoop()
	c.compileStmt(body)
	c.emit(opJmp, int32(lcond), 0, pos)
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.conts = c.conts[:len(c.conts)-1]
	for _, at := range *cnts {
		c.patch(at, lcond)
	}
	c.pendingBreaks = *brks
}

func (c *compiler) patchBreaks(target int) {
	for _, at := range c.pendingBreaks {
		c.patch(at, target)
	}
	c.pendingBreaks = nil
}

// ---------------------------------------------------------------- decls

func (c *compiler) declFor(d *cc.VarDecl) int32 {
	if i, ok := c.declIdx[d]; ok {
		return i
	}
	i := int32(len(c.p.decls))
	slot := c.slotOf[d.Sym.ID]
	if d.Sym.FuncIdx < 0 {
		slot = c.gslotOf[d.Sym.ID]
	}
	c.p.decls = append(c.p.decls, declInfo{slot: slot, allocT: c.tidx(d.Sym.Type), name: c.name(d.Name)})
	c.declIdx[d] = i
	return i
}

func (c *compiler) compileLocalDecl(d *cc.VarDecl) {
	if d.Storage == cc.StorageStatic {
		si, ok := c.statIdx[d]
		if !ok {
			si = int32(len(c.p.statics))
			c.p.statics = append(c.p.statics, staticInfo{
				sslot:  c.sslotOf[d.Sym.ID],
				lslot:  c.slotOf[d.Sym.ID],
				allocT: c.tidx(d.Sym.Type),
				name:   c.name(d.Name),
			})
			c.statIdx[d] = si
		}
		begin := c.emit(opStaticBegin, si, 0, d.Pos)
		if d.Init != nil {
			c.compileInit(d.Sym.Type, d.Init)
		} else {
			c.emit(opZeroAll, c.constOf(c.zeroOf(scalarTypeOf(d.Sym.Type))), 0, d.Pos)
		}
		c.emit(opPop, 0, 0, d.Pos)
		c.code[begin].b = int32(c.bindLabel())
		c.emit(opStaticBind, si, 0, d.Pos)
		return
	}
	di := c.declFor(d)
	if d.Init == nil {
		c.emit(opAllocVar, di, 0, d.Pos)
		return
	}
	c.emit(opAllocVar, di, 1, d.Pos)
	c.compileInit(d.Sym.Type, d.Init)
	c.emit(opPop, 0, 0, d.Pos)
}

func (c *compiler) compileGlobalDecl(d *cc.VarDecl) {
	di := c.declFor(d)
	c.emit(opAllocGlobal, di, 1, d.Pos)
	if d.Init != nil {
		c.compileInit(d.Sym.Type, d.Init)
	} else {
		// file-scope objects are zero-initialized in C
		c.emit(opZeroAll, c.constOf(c.zeroOf(scalarTypeOf(d.Sym.Type))), 0, d.Pos)
	}
	c.emit(opPop, 0, 0, d.Pos)
}

// compileInit mirrors interp's initObject against the object pointer on
// the stack (left there; the caller pops it).
func (c *compiler) compileInit(t cc.Type, init cc.Expr) {
	if il, ok := init.(*cc.InitList); ok {
		c.compileInitCells(t, il, 0)
		// C zero-fills the remainder of a partially initialized aggregate
		c.emit(opZeroFill, c.constOf(c.zeroOf(scalarTypeOf(t))), 0, il.Pos)
		return
	}
	c.compileExpr(init)
	c.emit(opInitCell, c.tidx(scalarTypeOf(t)), 0, init.NodePos())
}

// compileInitCells mirrors interp's initCells, including the mid-list
// excess-initializer UB (which fires after the preceding elements have
// been evaluated, so the trap is emitted in sequence).
func (c *compiler) compileInitCells(t cc.Type, il *cc.InitList, off int) {
	switch t := t.(type) {
	case *cc.ArrayType:
		elemCells := cellCount(t.Elem)
		for i, e := range il.List {
			if i >= t.Len {
				c.emitUB(int32(ubOutOfBounds), "excess array initializers", il.Pos)
				return
			}
			if sub, ok := e.(*cc.InitList); ok {
				c.compileInitCells(t.Elem, sub, off+i*elemCells)
			} else {
				c.compileExpr(e)
				c.emit(opInitCell, c.tidx(scalarTypeOf(t.Elem)), int32(off+i*elemCells), e.NodePos())
			}
		}
	case *cc.StructType:
		fo := off
		for i, e := range il.List {
			if i >= len(t.Fields) {
				c.emitUB(int32(ubOutOfBounds), "excess struct initializers", il.Pos)
				return
			}
			ft := t.Fields[i].Type
			if sub, ok := e.(*cc.InitList); ok {
				c.compileInitCells(ft, sub, fo)
			} else {
				c.compileExpr(e)
				c.emit(opInitCell, c.tidx(scalarTypeOf(ft)), int32(fo), e.NodePos())
			}
			fo += cellCount(ft)
		}
	default:
		if len(il.List) != 1 {
			c.emitUB(int32(ubOutOfBounds), "scalar initializer list", il.Pos)
			return
		}
		c.compileExpr(il.List[0])
		c.emit(opInitCell, c.tidx(scalarTypeOf(t)), int32(off), il.Pos)
	}
}

// ---------------------------------------------------------------- expressions

func (c *compiler) compileExpr(e cc.Expr) {
	c.step() // eval's stepNode, charged before any child
	switch e := e.(type) {
	case *cc.Ident:
		c.emitVarUse(e, opLoadVar)
	case *cc.IntLit:
		c.emit(opConst, c.constOf(c.p.tt.mkInt(e.Val, c.tidx(e.Type))), 0, e.Pos)
	case *cc.FloatLit:
		c.emit(opConst, c.constOf(c.p.tt.mkFloat(e.Val, c.tidx(e.Type))), 0, e.Pos)
	case *cc.CharLit:
		c.emit(opConst, c.constOf(c.p.tt.mkInt(int64(e.Val), basicInt)), 0, e.Pos)
	case *cc.StringLit:
		c.emit(opStr, c.strOf(e), 0, e.Pos)
	case *cc.BinaryExpr:
		c.compileBinary(e)
	case *cc.AssignExpr:
		c.compileAssign(e, false)
	case *cc.UnaryExpr:
		c.compileUnary(e)
	case *cc.PostfixExpr:
		c.compileLvalue(e.X)
		c.emitIncDec(e.Op, e.X, true, e.Pos)
	case *cc.CondExpr:
		c.compileExpr(e.Cond)
		jz := c.emit(opJz, 0, 0, e.Pos)
		c.compileBranch(e.T)
		jend := c.emit(opJmp, 0, 0, e.Pos)
		c.patch(jz, c.bindLabel())
		c.compileBranch(e.F)
		c.patch(jend, c.bindLabel())
	case *cc.CallExpr:
		c.compileCall(e, true)
	case *cc.IndexExpr:
		c.compileLvalue(e)
		c.emitLoadPtr(opLoadPtr, e.ExprType(), e.NodePos())
	case *cc.MemberExpr:
		c.compileLvalue(e)
		c.emitLoadPtr(opLoadPtr, e.ExprType(), e.NodePos())
	case *cc.CastExpr:
		c.compileExpr(e.X)
		c.emit(opConv, c.tidx(e.To), 0, e.Pos)
	case *cc.SizeofExpr:
		t := e.OfType
		if t == nil && e.X != nil {
			t = e.X.ExprType()
		}
		if t == nil {
			t = cc.TypeInt
		}
		c.emit(opConst, c.constOf(c.p.tt.mkInt(int64(t.Size()), basicULong)), 0, e.Pos)
	case *cc.CommaExpr:
		for i, x := range e.List {
			if i == len(e.List)-1 {
				c.compileExpr(x)
			} else {
				c.compileDiscard(x)
			}
		}
	default:
		panic(fmt.Sprintf("refvm: unknown expression %T", e))
	}
}

// compileDiscard mirrors evalDiscard: a discarded call steps once and
// tolerates a missing return value; a discarded comma steps for its
// elements only; everything else evaluates and pops.
func (c *compiler) compileDiscard(e cc.Expr) {
	if call, ok := e.(*cc.CallExpr); ok {
		c.step()
		c.compileCall(call, false)
		return
	}
	if comma, ok := e.(*cc.CommaExpr); ok {
		for _, x := range comma.List {
			c.compileDiscard(x)
		}
		return
	}
	if as, ok := e.(*cc.AssignExpr); ok {
		c.step() // compileExpr's step for the assignment
		c.compileAssign(as, true)
	} else {
		c.compileExpr(e)
	}
	c.emit(opPop, 0, 0, e.NodePos())
}

// compileBranch compiles one conditional arm: aggregate-typed arms yield
// their storage pointer (evalBranch).
func (c *compiler) compileBranch(e cc.Expr) {
	if isAggregate(e.ExprType()) {
		c.compileLvalue(e)
		return
	}
	c.compileExpr(e)
}

func isAggregate(t cc.Type) bool {
	switch t.(type) {
	case *cc.StructType, *cc.ArrayType:
		return true
	}
	return false
}

func (c *compiler) compileBinary(e *cc.BinaryExpr) {
	switch e.Op {
	case "&&":
		c.compileExpr(e.X)
		jz := c.emit(opJz, 0, 0, e.Pos)
		c.compileExpr(e.Y)
		c.emit(opBool, 0, 0, e.Pos)
		jend := c.emit(opJmp, 0, 0, e.Pos)
		c.patch(jz, c.bindLabel())
		c.emit(opConst, c.constOf(c.p.tt.mkInt(0, basicInt)), 0, e.Pos)
		c.patch(jend, c.bindLabel())
	case "||":
		c.compileExpr(e.X)
		jnz := c.emit(opJnz, 0, 0, e.Pos)
		c.compileExpr(e.Y)
		c.emit(opBool, 0, 0, e.Pos)
		jend := c.emit(opJmp, 0, 0, e.Pos)
		c.patch(jnz, c.bindLabel())
		c.emit(opConst, c.constOf(c.p.tt.mkInt(1, basicInt)), 0, e.Pos)
		c.patch(jend, c.bindLabel())
	default:
		c.compileExpr(e.X)
		c.compileExpr(e.Y)
		c.emit(opBinop, binopCode[e.Op], 0, e.Pos)
	}
}

// compileAssign compiles an assignment. When its value is discarded and
// it is a self-update of a plain int or long variable, it records the
// statement's reads in the function's self-update table.
func (c *compiler) compileAssign(e *cc.AssignExpr, discard bool) {
	lt := e.LHS.ExprType()
	if st, ok := lt.(*cc.StructType); ok && e.Op == "=" {
		c.compileLvalue(e.LHS)
		c.compileExpr(e.RHS)
		c.emit(opStructCopy, int32(cellCount(st)), c.tidx(st), e.Pos)
		return
	}
	c.compileLvalue(e.LHS)
	track := discard && isIntVar(e.LHS)
	if e.Op == "=" {
		start := len(c.code)
		c.compileExpr(e.RHS)
		store := int32(c.emit(opStoreConv, c.tidx(scalarTypeOf(lt)), 0, e.Pos))
		bin, ok := e.RHS.(*cc.BinaryExpr)
		if !track || !ok || (bin.Op != "+" && bin.Op != "-") {
			return
		}
		// x = x + e, x = x - e: the left operand is the first instruction
		// under the sum, at depth 0
		read := int32(start)
		for c.code[read].op == opStep {
			read++
		}
		if _, ok := bin.X.(*cc.Ident); ok && c.code[read].op == opLoadVar {
			c.selfUpdate(read, store, 0)
		}
		// x = e + x: the right operand sits just before the add, with e's
		// value above the lvalue address
		if _, ok := bin.Y.(*cc.Ident); ok && bin.Op == "+" && c.code[store-2].op == opLoadVar {
			c.selfUpdate(store-2, store, 1)
		}
		return
	}
	read := int32(c.emitLoadPtrAt(opLoadPtrKeep, lt, e.Pos))
	c.compileExpr(e.RHS)
	c.emit(opBinop, binopCode[e.Op[:len(e.Op)-1]], 0, e.Pos)
	store := int32(c.emit(opStoreConv, c.tidx(scalarTypeOf(lt)), 0, e.Pos))
	if track && (e.Op == "+=" || e.Op == "-=") {
		c.selfUpdate(read, store, 0)
	}
}

// selfUpdate records a self-update statement's read.
func (c *compiler) selfUpdate(read, store, depth int32) {
	if c.selfUpdates == nil {
		c.selfUpdates = make(map[int32]selfUpdate)
	}
	c.selfUpdates[read] = selfUpdate{store: store, depth: depth}
}

// isIntVar reports whether an lvalue is a resolved variable of type int
// or long.
func isIntVar(e cc.Expr) bool {
	id, ok := e.(*cc.Ident)
	if !ok || id.Sym == nil {
		return false
	}
	bt, ok := id.Sym.Type.(*cc.BasicType)
	return ok && (bt.Kind == cc.Int || bt.Kind == cc.Long)
}

func (c *compiler) compileUnary(e *cc.UnaryExpr) {
	switch e.Op {
	case "&":
		// the address is the lvalue itself: the tree-walker's PtrValue
		// carries a type the evaluator never reads
		c.compileLvalue(e.X)
	case "*":
		c.compileExpr(e.X)
		c.emit(opCheckPtr, c.msg("dereferencing non-pointer"), 0, e.Pos)
		c.emitLoadPtrAt(opLoadPtr, e.Type, e.Pos)
	case "!":
		c.compileExpr(e.X)
		c.emit(opNot, 0, 0, e.Pos)
	case "-":
		c.compileExpr(e.X)
		c.emit(opNeg, 0, 0, e.Pos)
	case "+":
		c.compileExpr(e.X)
	case "~":
		c.compileExpr(e.X)
		c.emit(opBitNot, 0, 0, e.Pos)
	case "++", "--":
		c.compileLvalue(e.X)
		c.emitIncDec(e.Op, e.X, false, e.Pos)
	default:
		panic("refvm: unknown unary " + e.Op)
	}
}

// emitIncDec emits the ++/-- operation of evalUnary/evalPostfix: the
// lvalue pointer is on the stack; the op loads the old value with the
// operand's static type shape, adds or subtracts an int 1, stores, and
// pushes the old (postfix) or new (prefix) value.
func (c *compiler) emitIncDec(op string, x cc.Expr, post bool, pos cc.Pos) {
	flags := int32(0)
	if op == "--" {
		flags |= incDec
	}
	if post {
		flags |= incPost
	}
	a := int32(0)
	if t := x.ExprType(); t != nil && isAggregate(t) {
		flags |= incAgg
		a = c.tidx(elemOfType(t))
	}
	c.emit(opIncDec, a, flags, pos)
}

// compileCall compiles a call in value (want) or discard context,
// handling the printf/abort/exit builtins the way evalCall does: matched
// by name before user functions, abort and exit's surplus arguments never
// evaluated, printf's arguments evaluated lazily by the formatter.
func (c *compiler) compileCall(e *cc.CallExpr, want bool) {
	switch e.Fun.Name {
	case "printf":
		if len(e.Args) == 0 {
			c.emit(opLimit, c.msg(fmt.Sprintf("printf with no format at %s", e.Pos)), 0, e.Pos)
			return
		}
		c.compileExpr(e.Args[0])
		var jumps []int
		jumps = append(jumps, c.emit(opPrintfBegin, 0, 0, e.Pos))
		for _, a := range e.Args[1:] {
			c.compileExpr(a)
			jumps = append(jumps, c.emit(opPrintfFeed, 0, 0, e.Pos))
		}
		c.emit(opPrintfNoArg, 0, 0, e.Pos)
		end := c.bindLabel()
		for _, at := range jumps {
			c.code[at].b = int32(end)
		}
		if !want {
			c.emit(opPop, 0, 0, e.Pos)
		}
		return
	case "abort":
		c.emit(opAbort, 0, 0, e.Pos)
		return
	case "exit":
		if len(e.Args) > 0 {
			c.compileExpr(e.Args[0])
			c.emit(opExit, 0, 1, e.Pos)
		} else {
			c.emit(opExit, 0, 0, e.Pos)
		}
		return
	}
	fi, ok := c.fnIdxOf[e.Fun.Name]
	if !ok {
		c.emit(opLimit, c.msg(fmt.Sprintf("call to undefined function %q at %s", e.Fun.Name, e.Pos)), 0, e.Pos)
		return
	}
	for _, a := range e.Args {
		c.compileExpr(a)
	}
	op := opCallD
	if want {
		op = opCallV
	}
	c.emit(op, fi, int32(len(e.Args)), e.Pos)
}

// ---------------------------------------------------------------- lvalues

// compileLvalue mirrors machine.lvalue: no step for the lvalue node
// itself, children in value position evaluate (and step) normally.
func (c *compiler) compileLvalue(e cc.Expr) {
	switch e := e.(type) {
	case *cc.Ident:
		c.emitVarUse(e, opAddrVar)
	case *cc.UnaryExpr:
		if e.Op != "*" {
			c.emitUB(int32(ubNullDeref), "not an lvalue", e.Pos)
			return
		}
		c.compileExpr(e.X)
		c.emit(opCheckPtr, c.msg("dereferencing non-pointer value"), 0, e.Pos)
	case *cc.IndexExpr:
		c.compileExpr(e.X)
		c.compileExpr(e.Idx)
		c.emit(opIndexAddr, 0, 0, e.Pos)
	case *cc.MemberExpr:
		var st *cc.StructType
		if e.Arrow {
			c.compileExpr(e.X)
			c.emit(opCheckPtr, c.msg("-> on non-pointer"), 0, e.Pos)
			if pt, ok := cc.Decay(e.X.ExprType()).(*cc.PointerType); ok {
				st, _ = pt.Elem.(*cc.StructType)
			}
		} else {
			c.compileLvalue(e.X)
			st, _ = e.X.ExprType().(*cc.StructType)
		}
		if st == nil {
			c.emitUB(int32(ubNullDeref), "member access on non-struct", e.Pos)
			return
		}
		fi := st.FieldIndex(e.Name)
		if fi < 0 {
			c.emitUB(int32(ubOutOfBounds), fmt.Sprintf("no field %q", e.Name), e.Pos)
			return
		}
		c.emit(opMemberAddr, int32(fieldOffset(st, fi)), c.tidx(elemOfType(st.Fields[fi].Type)), e.Pos)
	case *cc.CondExpr:
		c.compileExpr(e.Cond)
		jz := c.emit(opJz, 0, 0, e.Pos)
		c.compileLvalue(e.T)
		jend := c.emit(opJmp, 0, 0, e.Pos)
		c.patch(jz, c.bindLabel())
		c.compileLvalue(e.F)
		c.patch(jend, c.bindLabel())
	default:
		c.emitUB(int32(ubNullDeref), "expression is not an lvalue", e.NodePos())
	}
}

// emitVarUse compiles a variable reference (load or address) and records
// it as a hole patch site when the ident is a skeleton hole.
func (c *compiler) emitVarUse(e *cc.Ident, op uint8) {
	sym := e.Sym
	if sym == nil {
		c.emitUB(int32(ubUninitRead), fmt.Sprintf("unresolved identifier %q", e.Name), e.Pos)
		return
	}
	vi := int32(len(c.p.varRefs))
	c.p.varRefs = append(c.p.varRefs, c.varRefFor(sym))
	if hi, isHole := c.holeOf[e]; isHole {
		c.p.holeSites[hi] = append(c.p.holeSites[hi], vi)
		c.p.holeT[hi] = c.p.varRefs[vi].allocT
	}
	c.emit(op, vi, 0, e.Pos)
}

// varRefFor builds the slot descriptor of one symbol.
func (c *compiler) varRefFor(sym *cc.Symbol) varRef {
	vr := varRef{
		allocT: c.tidx(sym.Type),
		elem:   c.tidx(elemOfType(sym.Type)),
		name:   c.name(sym.Name),
	}
	if sym.FuncIdx < 0 {
		vr.global = true
		vr.slot = c.gslotOf[sym.ID]
	} else {
		vr.slot = c.slotOf[sym.ID]
	}
	return vr
}

// emitLoadPtr emits the scalar-or-aggregate load of machine.load for a
// statically known type.
func (c *compiler) emitLoadPtr(op uint8, t cc.Type, pos cc.Pos) {
	c.emitLoadPtrAt(op, t, pos)
}

func (c *compiler) emitLoadPtrAt(op uint8, t cc.Type, pos cc.Pos) int {
	if t != nil && isAggregate(t) {
		return c.emit(op, c.tidx(elemOfType(t)), 1, pos)
	}
	return c.emit(op, 0, 0, pos)
}

// elemOfType mirrors interp's elemOf.
func elemOfType(t cc.Type) cc.Type {
	if at, ok := t.(*cc.ArrayType); ok {
		return at.Elem
	}
	return t
}

// fieldOffset mirrors interp's fieldOffset.
func fieldOffset(t *cc.StructType, i int) int {
	off := 0
	for j := 0; j < i; j++ {
		off += cellCount(t.Fields[j].Type)
	}
	return off
}

// strOf assigns a string-literal slot per NODE: the tree-walker interns
// string objects per *cc.StringLit, so two identical literals are two
// distinct objects (observable through pointer equality).
func (c *compiler) strOf(e *cc.StringLit) int32 {
	if i, ok := c.strIdx[e]; ok {
		return i
	}
	i := int32(len(c.p.strs))
	c.p.strs = append(c.p.strs, e.Val)
	c.strIdx[e] = i
	return i
}
