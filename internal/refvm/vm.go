package refvm

import (
	"fmt"
	"math"

	"spe/internal/cc"
	"spe/internal/interp"
)

// UB kinds as int32 instruction operands (aliasing interp's enumeration:
// refvm reports its verdicts as *interp.Result so the campaign's
// classification code is oracle-agnostic).
const (
	ubUninitRead     = int32(interp.UBUninitRead)
	ubDivByZero      = int32(interp.UBDivByZero)
	ubSignedOverflow = int32(interp.UBSignedOverflow)
	ubShift          = int32(interp.UBShift)
	ubOutOfBounds    = int32(interp.UBOutOfBounds)
	ubNullDeref      = int32(interp.UBNullDeref)
	ubDangling       = int32(interp.UBDangling)
	ubNoReturnValue  = int32(interp.UBNoReturnValue)
)

// Dispatch modes. Both execute the same bytecode (superinstruction fusion
// happens at compile time, before the mode is chosen) and produce
// byte-identical Results; switch dispatch is the simpler loop kept as a
// cross-checking referee and an escape hatch.
const (
	DispatchThreaded = "threaded" // function-pointer handler table (default)
	DispatchSwitch   = "switch"   // monolithic opcode switch
)

// Config bounds an execution; the defaults match interp.Config so the two
// oracles agree on every resource verdict.
type Config struct {
	MaxSteps  int64  // default 2,000,000
	MaxDepth  int    // default 256
	MaxOutput int    // default 1 MiB
	Dispatch  string // DispatchThreaded (default) or DispatchSwitch
}

func (c Config) withDefaults() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 256
	}
	if c.MaxOutput == 0 {
		c.MaxOutput = 1 << 20
	}
	if c.Dispatch == "" {
		c.Dispatch = DispatchThreaded
	}
	return c
}

type ubPanic struct{ err *interp.UBError }
type limitPanic struct{ err *interp.LimitError }
type exitPanic struct{ code int }
type abortPanic struct{}

// vObject is one allocated memory object in the slab.
type vObject struct {
	cells      []vCell
	id         int32
	name       int32
	live       bool
	persistent bool
}

// vframe is one call frame: dense per-function slots of object handles.
type vframe struct {
	fn      *fnCode
	locals  []int32
	retpc   int32
	callPos int32
	want    bool
	isMain  bool
}

// pstate is one in-flight printf's incremental formatter state. States
// nest (a printf argument may itself call printf); each buffers its own
// output and commits to the machine's output only on completion, exactly
// like the tree-walker's builtinPrintf, whose partial output is discarded
// when a conversion panics mid-format.
type pstate struct {
	format string
	i      int
	buf    []byte
	spec   string
	conv   byte
	long   int
	pos    int32
}

// vmState is the bytecode oracle's reusable machine: object slab, frame
// stack, operand stack, output buffer — reset, not reallocated, between
// runs. Strictly single-goroutine, like interp.Machine.
type vmState struct {
	p   *program
	cfg Config

	objs    []vObject // objs[0] is the reserved null object
	objUsed int       // live prefix (excluding the null slot)
	nextID  int32

	globals []int32
	statics []int32
	strObjs []int32

	frames  []vframe
	stack   []Value
	pstates []pstate
	out     []byte
	steps   int64
	exit    int
	hasRet  bool
	retVal  Value

	// tfn is the threaded-dispatch loop's current function: call/return
	// handlers retarget it and the loop reloads its code/handler tables
	// when it moves (nil = halt). The switch loop ignores it.
	tfn *fnCode

	// budget is the step count past which the threaded loop leaves its
	// fast path: min(MaxSteps, the loop detector's next stop). loop is the
	// detector's state (loop.go). The switch loop ignores both.
	budget int64
	loop   loopState
}

func newVMState() *vmState {
	return &vmState{objs: make([]vObject, 1)}
}

// maxPooledObjects bounds the slab kept across runs: a pathological
// variant (say, a loop of int-to-pointer casts, each of which forges a
// distinct dead object, as in the tree-walker) may allocate far more
// objects than a typical run; keeping them all pooled would pin that
// worst case in every campaign worker.
const maxPooledObjects = 1 << 16

func resizeSlots(s []int32, n int32) []int32 {
	if int32(cap(s)) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (vm *vmState) reset(p *program, cfg Config) {
	vm.p = p
	vm.cfg = cfg
	if len(vm.objs) > maxPooledObjects {
		vm.objs = vm.objs[:maxPooledObjects]
	}
	vm.objUsed = 0
	vm.nextID = 0
	vm.globals = resizeSlots(vm.globals, p.nGlobals)
	vm.statics = resizeSlots(vm.statics, p.nStatics)
	vm.strObjs = resizeSlots(vm.strObjs, int32(len(p.strs)))
	vm.frames = vm.frames[:0]
	vm.stack = vm.stack[:0]
	vm.pstates = vm.pstates[:0]
	vm.out = vm.out[:0]
	vm.steps = 0
	vm.exit = 0
	vm.hasRet = false
	vm.retVal = Value{}
	vm.loop.reset()
	vm.budget = min(cfg.MaxSteps, firstProbe)
}

// run executes the compiled program, producing the same Result the
// tree-walking interpreter produces for the same source program.
func (vm *vmState) run(p *program, cfg Config) (res *interp.Result) {
	cfg = cfg.withDefaults()
	vm.reset(p, cfg)
	res = &interp.Result{}
	defer func() {
		if r := recover(); r != nil {
			switch pn := r.(type) {
			case ubPanic:
				res.UB = pn.err
			case limitPanic:
				res.Limit = pn.err
			case exitPanic:
				res.Exit = pn.code
			case abortPanic:
				res.Aborted = true
			default:
				panic(r)
			}
		}
		res.Output = string(vm.out)
		res.Steps = vm.steps
	}()
	if vm.cfg.Dispatch == DispatchSwitch {
		vm.exec()
	} else {
		vm.execThreaded()
	}
	res.Exit = vm.exit
	return res
}

// ---------------------------------------------------------------- helpers

func (vm *vmState) pos(i int32) cc.Pos { return vm.p.poss[i] }

func (vm *vmState) ub(kind int32, posIdx int32, format string, args ...interface{}) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	panic(ubPanic{&interp.UBError{Kind: interp.UBKind(kind), Pos: vm.pos(posIdx), Msg: msg}})
}

func (vm *vmState) limit(format string, args ...interface{}) {
	panic(limitPanic{&interp.LimitError{Msg: fmt.Sprintf(format, args...)}})
}

func (vm *vmState) objName(h int32) string { return vm.p.names[vm.objs[h].name] }

// allocRaw carves an object out of the slab. Reused cells are cleared to
// the uninitialized state; objects are never recycled within a run, so
// dangling-pointer detection keeps dead objects distinct.
func (vm *vmState) allocRaw(cells int32, id int32, name int32, persistent, live bool) int32 {
	vm.objUsed++
	h := vm.objUsed
	if h < len(vm.objs) {
		o := &vm.objs[h]
		cs := o.cells
		if int32(cap(cs)) >= cells {
			cs = cs[:cells]
			for i := range cs {
				cs[i] = vCell{}
			}
		} else {
			cs = make([]vCell, cells)
		}
		*o = vObject{cells: cs, id: id, name: name, live: live, persistent: persistent}
		return int32(h)
	}
	vm.objs = append(vm.objs, vObject{cells: make([]vCell, cells), id: id, name: name, live: live, persistent: persistent})
	return int32(h)
}

// alloc mirrors machine.alloc: bump the object ID (program-visible via
// pointer-to-int conversion and %p) and size by the type's cell count.
func (vm *vmState) alloc(tIdx int32, name int32) int32 {
	vm.nextID++
	return vm.allocRaw(vm.p.tt.cells(tIdx), vm.nextID, name, false, true)
}

// allocForged mirrors the tree-walker's int-to-pointer forgery: a fresh,
// dead, cell-less object per conversion (distinct forged pointers never
// compare equal, and any access is dangling UB).
func (vm *vmState) allocForged() int32 {
	return vm.allocRaw(0, 0, vm.p.nameForged, false, false)
}

// varObj resolves a variable reference to its object, lazily allocating
// an uninitialized one when the slot is empty (a declaration jumped over
// by goto, or a forward global reference during global initialization).
func (vm *vmState) varObj(vr *varRef) int32 {
	if vr.global {
		if h := vm.globals[vr.slot]; h != 0 {
			return h
		}
		h := vm.alloc(vr.allocT, vr.name)
		vm.globals[vr.slot] = h
		return h
	}
	fr := &vm.frames[len(vm.frames)-1]
	if h := fr.locals[vr.slot]; h != 0 {
		return h
	}
	h := vm.alloc(vr.allocT, vr.name)
	fr.locals[vr.slot] = h
	return h
}

// checkAccess mirrors machine.checkAccess (null, dangling, bounds — in
// that order).
func (vm *vmState) checkAccess(p Value, posIdx int32) {
	if p.isNull() {
		vm.ub(ubNullDeref, posIdx, "")
	}
	o := &vm.objs[p.Obj]
	if !o.live {
		vm.ub(ubDangling, posIdx, "object %s is out of scope", vm.p.names[o.name])
	}
	off := p.off()
	if off < 0 || off >= int64(len(o.cells)) {
		vm.ub(ubOutOfBounds, posIdx, "offset %d of object %s (%d cells)", off, vm.p.names[o.name], len(o.cells))
	}
}

// load mirrors machine.load: aggregates yield their storage pointer,
// scalars check access and initialization.
func (vm *vmState) load(p Value, posIdx int32, aggElem int32, agg bool) Value {
	if agg {
		return mkPtr(p.Obj, p.off(), aggElem)
	}
	vm.checkAccess(p, posIdx)
	cell := &vm.objs[p.Obj].cells[p.off()]
	if cell.init != cellSet && !vm.unmark(cell) {
		vm.ub(ubUninitRead, posIdx, "object %s cell %d", vm.objName(p.Obj), p.off())
	}
	return cell.val
}

// store mirrors machine.store.
func (vm *vmState) store(p Value, v Value, posIdx int32) {
	vm.checkAccess(p, posIdx)
	vm.objs[p.Obj].cells[p.off()] = vCell{val: v, init: cellSet}
}

func (vm *vmState) push(v Value) { vm.stack = append(vm.stack, v) }

func (vm *vmState) pop() Value {
	n := len(vm.stack) - 1
	v := vm.stack[n]
	vm.stack = vm.stack[:n]
	return v
}

func (vm *vmState) top() *Value { return &vm.stack[len(vm.stack)-1] }

// ---------------------------------------------------------------- exec loop

func (vm *vmState) exec() {
	// the entry pseudo-frame runs global initialization; it is not a call
	// frame for depth-limit purposes (the tree-walker's globals evaluate
	// with an empty frame stack)
	vm.frames = append(vm.frames, vframe{fn: vm.p.entry})
	fr := &vm.frames[0]
	code := fr.fn.code
	pc := int32(0)
	for {
		in := &code[pc]
		if in.step != 0 {
			vm.steps += int64(in.step)
			if vm.steps > vm.cfg.MaxSteps {
				vm.limit("step budget exhausted at %s", vm.pos(in.pos))
			}
		}
		switch in.op {
		case opStep:
			// steps already charged above

		case opConst:
			vm.push(vm.p.consts[in.a])

		case opStr:
			h := vm.strObjs[in.a]
			if h == 0 {
				s := vm.p.strs[in.a]
				h = vm.allocRaw(int32(len(s)+1), -1, vm.p.nameStrlit, true, true)
				cells := vm.objs[h].cells
				for i := 0; i < len(s); i++ {
					cells[i] = vCell{val: vm.p.tt.mkInt(int64(s[i]), basicChar), init: cellSet}
				}
				cells[len(s)] = vCell{val: vm.p.tt.mkInt(0, basicChar), init: cellSet}
				vm.strObjs[in.a] = h
			}
			vm.push(mkPtr(h, 0, basicChar))

		case opLoadVar:
			vr := &vm.p.varRefs[in.a]
			h := vm.varObj(vr)
			switch k := vm.p.tt.entries[vr.allocT].kind; k {
			case tkArray, tkStruct:
				vm.push(mkPtr(h, 0, vr.elem))
			default:
				cell := &vm.objs[h].cells[0]
				if cell.init != cellSet {
					vm.ub(ubUninitRead, in.pos, "object %s cell %d", vm.p.names[vr.name], 0)
				}
				vm.push(cell.val)
			}

		case opAddrVar:
			vr := &vm.p.varRefs[in.a]
			h := vm.varObj(vr)
			vm.push(mkPtr(h, 0, vr.elem))

		case opLoadPtr:
			p := vm.pop()
			vm.push(vm.load(p, in.pos, in.a, in.b != 0))

		case opLoadPtrKeep:
			p := *vm.top()
			vm.push(vm.load(p, in.pos, in.a, in.b != 0))

		case opCheckPtr:
			if vm.top().Kind != kPtr {
				vm.ub(ubNullDeref, in.pos, "%s", vm.p.msgs[in.a])
			}

		case opIndexAddr:
			idx := vm.pop()
			base := vm.pop()
			if base.Kind != kPtr {
				vm.ub(ubNullDeref, in.pos, "indexing non-pointer value")
			}
			if idx.Kind != kInt {
				vm.ub(ubOutOfBounds, in.pos, "non-integer index")
			}
			scale := int64(vm.p.tt.cells(base.TIdx))
			vm.push(mkPtr(base.Obj, base.off()+iOf(idx)*scale, vm.p.tt.elemOf(base.TIdx)))

		case opMemberAddr:
			base := vm.pop()
			vm.push(mkPtr(base.Obj, base.off()+int64(in.a), in.b))

		case opBinop:
			y := vm.pop()
			x := vm.pop()
			vm.push(vm.binop(in.a, x, y, in.pos))

		// Superinstructions: the absorbed second instruction sits at pc+1
		// as the operand word (see fuseCode); pc advances by 2.
		case opLoadVarBinop:
			vr := &vm.p.varRefs[in.a]
			h := vm.varObj(vr)
			cell := &vm.objs[h].cells[0]
			if cell.init != cellSet {
				vm.ub(ubUninitRead, in.pos, "object %s cell %d", vm.p.names[vr.name], 0)
			}
			nxt := &code[pc+1]
			x := vm.pop()
			vm.push(vm.binop(nxt.a, x, cell.val, nxt.pos))
			pc += 2
			continue

		case opConstBinop:
			nxt := &code[pc+1]
			x := vm.pop()
			vm.push(vm.binop(nxt.a, x, vm.p.consts[in.a], nxt.pos))
			pc += 2
			continue

		case opBinopJz:
			y := vm.pop()
			x := vm.pop()
			if vm.binop(in.a, x, y, in.pos).isZero() {
				pc = code[pc+1].a
			} else {
				pc += 2
			}
			continue

		case opBinopJnz:
			y := vm.pop()
			x := vm.pop()
			if !vm.binop(in.a, x, y, in.pos).isZero() {
				pc = code[pc+1].a
			} else {
				pc += 2
			}
			continue

		case opConstStore:
			nxt := &code[pc+1]
			p := vm.pop()
			cv := vm.convertAt(vm.p.consts[in.a], nxt.a, nxt.pos)
			vm.store(p, cv, nxt.pos)
			vm.push(cv)
			pc += 2
			continue

		case opNot:
			v := vm.pop()
			vm.push(boolValue(v.isZero()))

		case opNeg:
			v := vm.pop()
			if v.Kind == kFloat {
				vm.push(vm.p.tt.mkFloat(-fOf(v), v.TIdx))
			} else {
				t := typeOf(v)
				zero := Value{Kind: kInt, TIdx: t}
				vm.push(vm.intArith(bopSub, zero, v, in.pos, t))
			}

		case opBitNot:
			v := vm.pop()
			if v.Kind != kInt {
				vm.ub(ubShift, in.pos, "~ on non-integer")
			}
			t := promote(typeOf(v))
			vm.push(vm.p.tt.mkInt(^iOf(v), t))

		case opIncDec:
			p := vm.pop()
			old := vm.load(p, in.pos, in.a, in.b&incAgg != 0)
			op := bopAdd
			if in.b&incDec != 0 {
				op = bopSub
			}
			one := Value{Kind: kInt, Bits: 1, TIdx: basicInt}
			nv := vm.addSub(op, old, one, in.pos, typeOf(old))
			vm.store(p, nv, in.pos)
			if in.b&incPost != 0 {
				vm.push(old)
			} else {
				vm.push(nv)
			}

		case opConv:
			v := vm.pop()
			vm.push(vm.convertAt(v, in.a, in.pos))

		case opJmp:
			pc = in.a
			continue

		case opJz:
			if vm.pop().isZero() {
				pc = in.a
				continue
			}

		case opJnz:
			if !vm.pop().isZero() {
				pc = in.a
				continue
			}

		case opBool:
			v := vm.pop()
			vm.push(boolValue(!v.isZero()))

		case opPop:
			vm.stack = vm.stack[:len(vm.stack)-1]

		case opStoreConv:
			v := vm.pop()
			p := vm.pop()
			cv := vm.convertAt(v, in.a, in.pos)
			vm.store(p, cv, in.pos)
			vm.push(cv)

		case opStructCopy:
			rv := vm.pop()
			lhs := vm.pop()
			if rv.Kind != kPtr {
				vm.ub(ubOutOfBounds, in.pos, "struct assignment from non-struct")
			}
			n := int64(in.a)
			for i := int64(0); i < n; i++ {
				src := mkPtr(rv.Obj, rv.off()+i, rv.TIdx)
				vm.checkAccess(src, in.pos)
				cell := &vm.objs[rv.Obj].cells[rv.off()+i]
				if cell.init != cellSet {
					vm.ub(ubUninitRead, in.pos, "copy of uninitialized struct field")
				}
				vm.store(mkPtr(lhs.Obj, lhs.off()+i, lhs.TIdx), cell.val, in.pos)
			}
			vm.push(mkPtr(lhs.Obj, lhs.off(), in.b))

		case opCallV, opCallD:
			fn2 := vm.p.fns[in.a]
			if len(vm.frames)-1 >= vm.cfg.MaxDepth {
				vm.limit("call depth exceeded at %s", vm.pos(in.pos))
			}
			nargs := int(in.b)
			argBase := len(vm.stack) - nargs
			n := len(vm.frames)
			if n < cap(vm.frames) {
				vm.frames = vm.frames[:n+1]
			} else {
				vm.frames = append(vm.frames, vframe{})
			}
			nf := &vm.frames[n]
			fr = &vm.frames[n-1] // re-resolve: append may have moved the slice
			nf.fn = fn2
			nf.locals = resizeSlots(nf.locals, fn2.nslots)
			nf.retpc = pc + 1
			nf.callPos = in.pos
			nf.want = in.op == opCallV
			nf.isMain = false
			for pi := range fn2.params {
				prm := &fn2.params[pi]
				h := vm.alloc(prm.allocT, prm.name)
				var v Value
				if pi < nargs {
					v = vm.convertAt(vm.stack[argBase+pi], prm.convT, in.pos)
				} else {
					v = vm.p.consts[prm.zero]
				}
				vm.objs[h].cells[0] = vCell{val: v, init: cellSet}
				if prm.slot >= 0 {
					nf.locals[prm.slot] = h
				}
			}
			vm.stack = vm.stack[:argBase]
			fr = nf
			code = fn2.code
			pc = 0
			continue

		case opCallMain:
			if vm.p.mainFn < 0 {
				vm.limit("no main function")
			}
			fn2 := vm.p.fns[vm.p.mainFn]
			n := len(vm.frames)
			if n < cap(vm.frames) {
				vm.frames = vm.frames[:n+1]
			} else {
				vm.frames = append(vm.frames, vframe{})
			}
			nf := &vm.frames[n]
			nf.fn = fn2
			nf.locals = resizeSlots(nf.locals, fn2.nslots)
			nf.retpc = pc + 1
			nf.callPos = in.pos
			nf.want = false
			nf.isMain = true
			for pi := range fn2.params {
				prm := &fn2.params[pi]
				h := vm.alloc(prm.allocT, prm.name)
				vm.objs[h].cells[0] = vCell{val: vm.p.consts[prm.zero], init: cellSet}
				if prm.slot >= 0 {
					nf.locals[prm.slot] = h
				}
			}
			fr = nf
			code = fn2.code
			pc = 0
			continue

		case opRetVal, opRetNone:
			if in.op == opRetVal {
				vm.retVal = vm.pop()
				vm.hasRet = true
			} else {
				vm.hasRet = false
			}
			for _, h := range fr.locals {
				if h != 0 {
					if o := &vm.objs[h]; !o.persistent {
						o.live = false
					}
				}
			}
			retpc, want, isMain, callPos := fr.retpc, fr.want, fr.isMain, fr.callPos
			fnName := fr.fn.name
			vm.frames = vm.frames[:len(vm.frames)-1]
			fr = &vm.frames[len(vm.frames)-1]
			code = fr.fn.code
			pc = retpc
			if isMain {
				if vm.hasRet {
					vm.exit = int(uint8(iOf(vm.retVal)))
				} else {
					vm.exit = 0 // C99 5.1.2.2.3: falling off main returns 0
				}
			} else if want {
				if !vm.hasRet {
					vm.ub(ubNoReturnValue, callPos, "value of %s() used but function returned without a value", fnName)
				}
				vm.push(vm.retVal)
			}
			continue

		case opGotoEscape:
			vm.ub(ubOutOfBounds, fr.callPos, "goto to label %q escaped function", vm.p.names[in.a])

		case opAllocVar:
			d := &vm.p.decls[in.a]
			h := vm.alloc(d.allocT, d.name)
			fr.locals[d.slot] = h
			if in.b != 0 {
				vm.push(mkPtr(h, 0, tidxNone))
			}

		case opAllocGlobal:
			d := &vm.p.decls[in.a]
			h := vm.alloc(d.allocT, d.name)
			vm.globals[d.slot] = h
			if in.b != 0 {
				vm.push(mkPtr(h, 0, tidxNone))
			}

		case opInitCell:
			v := vm.pop()
			p := vm.top()
			cv := vm.convertAt(v, in.a, in.pos)
			vm.objs[p.Obj].cells[in.b] = vCell{val: cv, init: cellSet}

		case opZeroFill:
			p := vm.top()
			zv := vm.p.consts[in.a]
			cells := vm.objs[p.Obj].cells
			for i := range cells {
				if cells[i].init == cellUninit {
					cells[i] = vCell{val: zv, init: cellSet}
				}
			}

		case opZeroAll:
			p := vm.top()
			zv := vm.p.consts[in.a]
			cells := vm.objs[p.Obj].cells
			for i := range cells {
				cells[i] = vCell{val: zv, init: cellSet}
			}

		case opStaticBegin:
			si := &vm.p.statics[in.a]
			if vm.statics[si.sslot] != 0 {
				pc = in.b
				continue
			}
			vm.nextID++
			h := vm.allocRaw(vm.p.tt.cells(si.allocT), vm.nextID, si.name, true, true)
			vm.statics[si.sslot] = h
			vm.push(mkPtr(h, 0, tidxNone))

		case opStaticBind:
			si := &vm.p.statics[in.a]
			fr.locals[si.lslot] = vm.statics[si.sslot]

		case opPrintfBegin:
			fv := vm.pop()
			format := vm.readCString(fv, in.pos)
			vm.pstates = append(vm.pstates, pstate{format: format, pos: in.pos})
			if !vm.pfAdvance() {
				vm.pfFinish()
				pc = in.b
				continue
			}

		case opPrintfFeed:
			v := vm.pop()
			vm.pfApply(v)
			if !vm.pfAdvance() {
				vm.pfFinish()
				pc = in.b
				continue
			}

		case opPrintfNoArg:
			vm.limit("printf: missing argument for conversion at %s", vm.pos(in.pos))

		case opAbort:
			panic(abortPanic{})

		case opExit:
			code := 0
			if in.b != 0 {
				code = int(uint8(iOf(vm.pop())))
			}
			panic(exitPanic{code: code})

		case opUB:
			vm.ub(in.a, in.pos, "%s", vm.p.msgs[in.b])

		case opLimit:
			panic(limitPanic{&interp.LimitError{Msg: vm.p.msgs[in.a]}})

		case opHalt:
			return

		default:
			panic(fmt.Sprintf("refvm: unknown opcode %d", in.op))
		}
		pc++
	}
}

func boolValue(b bool) Value {
	if b {
		return Value{Kind: kInt, Bits: 1, TIdx: basicInt}
	}
	return Value{Kind: kInt, TIdx: basicInt}
}

// ---------------------------------------------------------------- arithmetic
//
// Ports of interp's binop/intArith/shift/floatOp/ptrOp/convert onto the
// compact value word, bit for bit: same UB conditions, same messages,
// same result typing (including the quirks around non-basic types).

func (vm *vmState) binop(op int32, x, y Value, posIdx int32) Value {
	if x.Kind == kPtr || y.Kind == kPtr {
		return vm.ptrOp(op, x, y, posIdx)
	}
	if x.Kind == kFloat || y.Kind == kFloat {
		return vm.floatOp(op, x, y, posIdx)
	}
	switch op {
	case bopAdd, bopSub, bopMul, bopDiv, bopMod:
		t := usual(typeOf(x), typeOf(y))
		return vm.intArith(op, x, y, posIdx, t)
	case bopShl, bopShr:
		return vm.shift(op, x, y, posIdx)
	case bopAnd, bopOr, bopXor:
		t := usual(typeOf(x), typeOf(y))
		var r int64
		switch op {
		case bopAnd:
			r = iOf(x) & iOf(y)
		case bopOr:
			r = iOf(x) | iOf(y)
		default:
			r = iOf(x) ^ iOf(y)
		}
		return vm.p.tt.mkInt(r, t)
	case bopEq, bopNe, bopLt, bopGt, bopLe, bopGe:
		return boolValue(intCompare(op, x, y))
	default:
		panic(fmt.Sprintf("refvm: unknown binop code %d", op))
	}
}

func intCompare(op int32, x, y Value) bool {
	t := usual(typeOf(x), typeOf(y))
	if isUnsigned(t) {
		a, b := uint64(truncTidx(iOf(x), t)), uint64(truncTidx(iOf(y), t))
		if w := widthOf(t); w < 64 {
			mask := uint64(1)<<w - 1
			a &= mask
			b &= mask
		}
		switch op {
		case bopEq:
			return a == b
		case bopNe:
			return a != b
		case bopLt:
			return a < b
		case bopGt:
			return a > b
		case bopLe:
			return a <= b
		default:
			return a >= b
		}
	}
	a, b := iOf(x), iOf(y)
	switch op {
	case bopEq:
		return a == b
	case bopNe:
		return a != b
	case bopLt:
		return a < b
	case bopGt:
		return a > b
	case bopLe:
		return a <= b
	default:
		return a >= b
	}
}

// addSub mirrors machine.addSub.
func (vm *vmState) addSub(op int32, x, y Value, posIdx int32, t int32) Value {
	if x.Kind == kPtr {
		return vm.ptrOp(op, x, y, posIdx)
	}
	if x.Kind == kFloat {
		return vm.floatOp(op, x, y, posIdx)
	}
	return vm.intArith(op, x, y, posIdx, t)
}

func (vm *vmState) intArith(op int32, x, y Value, posIdx int32, t int32) Value {
	if isUnsigned(t) {
		w := widthOf(t)
		a, b := uint64(iOf(x)), uint64(iOf(y))
		if w < 64 {
			mask := uint64(1)<<w - 1
			a &= mask
			b &= mask
		}
		var r uint64
		switch op {
		case bopAdd:
			r = a + b
		case bopSub:
			r = a - b
		case bopMul:
			r = a * b
		case bopDiv:
			if b == 0 {
				vm.ub(ubDivByZero, posIdx, "")
			}
			r = a / b
		case bopMod:
			if b == 0 {
				vm.ub(ubDivByZero, posIdx, "")
			}
			r = a % b
		}
		return vm.p.tt.mkInt(int64(r), t)
	}
	a, b := iOf(x), iOf(y)
	var r int64
	switch op {
	case bopAdd:
		r = a + b
		if (a > 0 && b > 0 && r < a) || (a < 0 && b < 0 && r > a) {
			vm.ub(ubSignedOverflow, posIdx, "%d + %d", a, b)
		}
	case bopSub:
		r = a - b
		if (b < 0 && r < a) || (b > 0 && r > a) {
			vm.ub(ubSignedOverflow, posIdx, "%d - %d", a, b)
		}
	case bopMul:
		r = a * b
		if a != 0 && (r/a != b || (a == -1 && b == math.MinInt64)) {
			vm.ub(ubSignedOverflow, posIdx, "%d * %d", a, b)
		}
	case bopDiv:
		if b == 0 {
			vm.ub(ubDivByZero, posIdx, "")
		}
		if a == math.MinInt64 && b == -1 {
			vm.ub(ubSignedOverflow, posIdx, "INT_MIN / -1")
		}
		r = a / b
	case bopMod:
		if b == 0 {
			vm.ub(ubDivByZero, posIdx, "")
		}
		if a == math.MinInt64 && b == -1 {
			vm.ub(ubSignedOverflow, posIdx, "INT_MIN %% -1")
		}
		r = a % b
	}
	// the result must be representable in t
	if tr := vm.p.tt.trunc(r, t); tr != r {
		vm.ub(ubSignedOverflow, posIdx, "result %d not representable in %s", r, vm.typeName(t))
	}
	return vm.p.tt.mkInt(r, t)
}

// typeName renders a type index for UB messages the way the tree-walker
// formats its cc.Type (%s of a nil interface prints "%!s(<nil>)").
func (vm *vmState) typeName(t int32) interface{} {
	if t < 0 {
		return cc.Type(nil)
	}
	return vm.p.tt.entries[t].typ
}

func (vm *vmState) shift(op int32, x, y Value, posIdx int32) Value {
	t := promote(typeOf(x))
	w := widthOf(t)
	yi := iOf(y)
	if yi < 0 || uint(yi) >= w {
		vm.ub(ubShift, posIdx, "shift count %d for %d-bit type", yi, w)
	}
	if isUnsigned(t) {
		a := uint64(vm.p.tt.trunc(iOf(x), t))
		if w < 64 {
			a &= uint64(1)<<w - 1
		}
		var r uint64
		if op == bopShl {
			r = a << uint(yi)
		} else {
			r = a >> uint(yi)
		}
		return vm.p.tt.mkInt(int64(r), t)
	}
	xi := iOf(x)
	if op == bopShl {
		if xi < 0 {
			vm.ub(ubShift, posIdx, "left shift of negative value %d", xi)
		}
		r := xi << uint(yi)
		if vm.p.tt.trunc(r, t) != r || r < 0 {
			vm.ub(ubShift, posIdx, "left shift overflow")
		}
		return vm.p.tt.mkInt(r, t)
	}
	return vm.p.tt.mkInt(xi>>uint(yi), t)
}

func (vm *vmState) floatOp(op int32, x, y Value, posIdx int32) Value {
	a := toF(x)
	b := toF(y)
	switch op {
	case bopAdd:
		return vm.p.tt.mkFloat(a+b, basicDouble)
	case bopSub:
		return vm.p.tt.mkFloat(a-b, basicDouble)
	case bopMul:
		return vm.p.tt.mkFloat(a*b, basicDouble)
	case bopDiv:
		return vm.p.tt.mkFloat(a/b, basicDouble) // IEEE division by zero is defined
	case bopEq, bopNe, bopLt, bopGt, bopLe, bopGe:
		var r bool
		switch op {
		case bopEq:
			r = a == b
		case bopNe:
			r = a != b
		case bopLt:
			r = a < b
		case bopGt:
			r = a > b
		case bopLe:
			r = a <= b
		default:
			r = a >= b
		}
		return boolValue(r)
	default:
		vm.ub(ubShift, posIdx, "invalid float operation %s", binopNames[op])
		panic("unreachable")
	}
}

func toF(v Value) float64 {
	if v.Kind == kFloat {
		return fOf(v)
	}
	if isUnsigned(typeOf(v)) {
		return float64(uint64(iOf(v)))
	}
	return float64(iOf(v))
}

func (vm *vmState) ptrOp(op int32, x, y Value, posIdx int32) Value {
	switch op {
	case bopAdd, bopSub:
		if x.Kind == kPtr && y.Kind == kInt {
			delta := iOf(y) * int64(vm.p.tt.cells(x.TIdx))
			if op == bopSub {
				delta = -delta
			}
			noff := x.off() + delta
			if x.Obj != 0 {
				if noff < 0 || noff > int64(len(vm.objs[x.Obj].cells)) {
					vm.ub(ubOutOfBounds, posIdx, "pointer arithmetic past object %s", vm.objName(x.Obj))
				}
			}
			return mkPtr(x.Obj, noff, x.TIdx)
		}
		if x.Kind == kInt && y.Kind == kPtr && op == bopAdd {
			return vm.ptrOp(bopAdd, y, x, posIdx)
		}
		if x.Kind == kPtr && y.Kind == kPtr && op == bopSub {
			if x.Obj != y.Obj {
				vm.ub(ubOutOfBounds, posIdx, "subtracting pointers to different objects")
			}
			scale := int64(vm.p.tt.cells(x.TIdx))
			return vm.p.tt.mkInt((x.off()-y.off())/scale, basicLong)
		}
	case bopEq, bopNe:
		same := x.Kind == kPtr && y.Kind == kPtr && x.Obj == y.Obj && x.off() == y.off()
		if x.Kind == kInt && iOf(x) == 0 {
			same = y.isNull()
		}
		if y.Kind == kInt && iOf(y) == 0 {
			same = x.isNull()
		}
		if op == bopNe {
			same = !same
		}
		return boolValue(same)
	case bopLt, bopGt, bopLe, bopGe:
		if x.Kind != kPtr || y.Kind != kPtr || x.Obj != y.Obj {
			vm.ub(ubOutOfBounds, posIdx, "relational comparison of unrelated pointers")
		}
		xo := vm.p.tt.mkInt(x.off(), basicLong)
		yo := vm.p.tt.mkInt(y.off(), basicLong)
		return boolValue(intCompare(op, xo, yo))
	}
	vm.ub(ubOutOfBounds, posIdx, "invalid pointer operation %s", binopNames[op])
	panic("unreachable")
}

// convertAt mirrors machine.convert.
func (vm *vmState) convertAt(v Value, ti int32, posIdx int32) Value {
	if ti < 0 {
		return v
	}
	e := &vm.p.tt.entries[ti]
	switch e.kind {
	case tkPtr:
		elem := e.elem
		switch v.Kind {
		case kPtr:
			return mkPtr(v.Obj, v.off(), elem)
		case kInt:
			if v.Bits == 0 {
				return mkPtr(0, 0, elem)
			}
			// integers forged into pointers dereference as UB later
			return mkPtr(vm.allocForged(), int64(v.Bits), elem)
		}
		return v
	case tkBasic:
		if isFloatTidx(ti) {
			return vm.p.tt.mkFloat(toF(v), ti)
		}
		switch v.Kind {
		case kFloat:
			f := fOf(v)
			if math.IsNaN(f) || f >= 9.3e18 || f <= -9.3e18 {
				vm.ub(ubSignedOverflow, posIdx, "float-to-int conversion of %g", f)
			}
			return vm.p.tt.mkInt(int64(f), ti)
		case kPtr:
			// pointer-to-integer: a stable synthetic address
			addr := int64(0)
			if v.Obj != 0 {
				addr = int64(vm.objs[v.Obj].id)*1_000_000 + v.off()
			}
			return vm.p.tt.mkInt(addr, ti)
		default:
			return vm.p.tt.mkInt(int64(v.Bits), ti)
		}
	}
	return v
}

// ---------------------------------------------------------------- printf

// readCString mirrors machine.readCString.
func (vm *vmState) readCString(v Value, posIdx int32) string {
	if v.Kind != kPtr {
		vm.ub(ubNullDeref, posIdx, "%%s argument is not a pointer")
	}
	var sb []byte
	p := v
	for n := 0; ; n++ {
		if n > 1<<16 {
			vm.limit("unterminated string at %s", vm.pos(posIdx))
		}
		vm.checkAccess(p, posIdx)
		cell := &vm.objs[p.Obj].cells[p.off()]
		if cell.init != cellSet && !vm.unmark(cell) {
			vm.ub(ubUninitRead, posIdx, "string read")
		}
		ci := iOf(cell.val)
		if ci == 0 {
			return string(sb)
		}
		sb = append(sb, byte(ci))
		p.Bits++
	}
}

// pfAdvance consumes the top printf state's format string up to the next
// conversion that needs an argument, appending literal text to its
// buffer. It reports whether an argument is now required. The parse is a
// verbatim port of interp.FormatPrintf's spec scanner.
func (vm *vmState) pfAdvance() bool {
	st := &vm.pstates[len(vm.pstates)-1]
	format := st.format
	for st.i < len(format) {
		ch := format[st.i]
		if ch != '%' {
			st.buf = append(st.buf, ch)
			st.i++
			continue
		}
		st.i++
		if st.i >= len(format) {
			return false
		}
		spec := "%"
		for st.i < len(format) && (format[st.i] == '-' || format[st.i] == '0' || format[st.i] == '+' || format[st.i] == ' ') {
			spec += string(format[st.i])
			st.i++
		}
		for st.i < len(format) && format[st.i] >= '0' && format[st.i] <= '9' {
			spec += string(format[st.i])
			st.i++
		}
		if st.i < len(format) && format[st.i] == '.' {
			spec += "."
			st.i++
			for st.i < len(format) && format[st.i] >= '0' && format[st.i] <= '9' {
				spec += string(format[st.i])
				st.i++
			}
		}
		long := 0
		for st.i < len(format) && (format[st.i] == 'l' || format[st.i] == 'h') {
			if format[st.i] == 'l' {
				long++
			}
			st.i++
		}
		if st.i >= len(format) {
			return false
		}
		conv := format[st.i]
		st.i++
		switch conv {
		case '%':
			st.buf = append(st.buf, '%')
		case 'd', 'i', 'u', 'x', 'X', 'c', 'f', 'g', 'e', 's', 'p':
			st.spec, st.conv, st.long = spec, conv, long
			return true
		default:
			st.buf = append(st.buf, spec...)
			st.buf = append(st.buf, conv)
		}
	}
	return false
}

// pfApply formats one argument with the pending conversion, mirroring the
// corresponding FormatPrintf case.
func (vm *vmState) pfApply(v Value) {
	st := &vm.pstates[len(vm.pstates)-1]
	switch st.conv {
	case 'd', 'i':
		n := iOf(v)
		if st.long == 0 {
			n = int64(int32(n))
		}
		st.buf = appendf(st.buf, st.spec+"d", n)
	case 'u':
		var n uint64
		if st.long == 0 {
			n = uint64(uint32(iOf(v)))
		} else {
			n = uint64(iOf(v))
		}
		st.buf = appendf(st.buf, st.spec+"d", n)
	case 'x', 'X':
		var n uint64
		if st.long == 0 {
			n = uint64(uint32(iOf(v)))
		} else {
			n = uint64(iOf(v))
		}
		st.buf = appendf(st.buf, st.spec+string(st.conv), n)
	case 'c':
		st.buf = append(st.buf, byte(iOf(v)))
	case 'f', 'g', 'e':
		st.buf = appendf(st.buf, st.spec+string(st.conv), toF(v))
	case 's':
		s := vm.readCString(v, st.pos)
		st.buf = append(st.buf, s...)
	case 'p':
		if v.Kind == kPtr && !v.isNull() {
			st.buf = appendf(st.buf, "0x%x", int64(vm.objs[v.Obj].id)*1_000_000+v.off())
		} else {
			st.buf = append(st.buf, "(nil)"...)
		}
	}
}

func appendf(buf []byte, format string, args ...interface{}) []byte {
	return fmt.Appendf(buf, format, args...)
}

// pfFinish commits the completed printf's buffer to the output (checking
// the output budget, like builtinPrintf) and pushes its byte count.
func (vm *vmState) pfFinish() {
	st := &vm.pstates[len(vm.pstates)-1]
	vm.out = append(vm.out, st.buf...)
	n := len(st.buf)
	vm.pstates = vm.pstates[:len(vm.pstates)-1]
	if len(vm.out) > vm.cfg.MaxOutput {
		vm.limit("output budget exhausted")
	}
	vm.push(Value{Kind: kInt, Bits: uint64(int64(n)), TIdx: basicInt})
}
