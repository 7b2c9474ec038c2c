package refvm

import "spe/internal/interp"

// Threaded dispatch: instead of re-decoding the opcode through one
// monolithic switch per instruction, each compiled function carries a
// handler table parallel to its code — one function pointer per
// instruction, selected once at skeleton-compile time (buildHandlers).
// Selection can therefore specialize on facts the compiler proved and
// the patching discipline preserves: a variable load whose interned type
// is scalar never re-checks for aggregates, a comparison binop gets the
// integer fast path. Both dispatch modes execute the identical
// instruction stream and share every semantic helper, so their Results
// are byte-identical; the equivalence suites pin this.

// opFunc executes one instruction and returns the next pc. Call, return,
// and halt handlers additionally retarget vm.tfn; the loop reloads its
// code/handler slices when it moves.
type opFunc func(vm *vmState, in *instr, pc int32) int32

func (vm *vmState) execThreaded() {
	// the entry pseudo-frame runs global initialization, exactly like exec
	vm.frames = append(vm.frames, vframe{fn: vm.p.entry})
	cur := vm.p.entry
	vm.tfn = cur
	code := cur.code
	handlers := cur.handlers
	pc := int32(0)
	for {
		in := &code[pc]
		if in.step != 0 {
			vm.steps += int64(in.step)
			if vm.steps > vm.budget {
				vm.overBudget(in, pc)
			}
		}
		pc = handlers[pc](vm, in, pc)
		if vm.tfn != cur {
			if vm.tfn == nil {
				return
			}
			cur = vm.tfn
			code = cur.code
			handlers = cur.handlers
		}
	}
}

// buildHandlers populates every function's handler table. Runs once at
// the end of compilation, after goto resolution, fusion, and the full
// varRefs table exist.
func buildHandlers(p *program) {
	for _, fn := range p.fns {
		buildFnHandlers(p, fn)
	}
	buildFnHandlers(p, p.entry)
}

func buildFnHandlers(p *program, fn *fnCode) {
	hs := make([]opFunc, len(fn.code))
	for i := range fn.code {
		hs[i] = handlerFor(p, fn, i)
	}
	fn.handlers = hs
}

// handlerFor picks the handler for one instruction, specializing where
// the instruction's operands prove the shape. The specializations are
// patch-stable: Cache.patch refuses rebindings that change a hole's
// interned type, so a varRef's scalar/aggregate kind and a binop's
// operator code never change under an existing handler table.
func handlerFor(p *program, fn *fnCode, i int) opFunc {
	in := &fn.code[i]
	switch in.op {
	case opLoadVar:
		if scalarRef(p, in.a) {
			return hLoadVarScalar
		}
		return hLoadVarAgg
	case opBinop:
		if in.a >= bopEq {
			return hBinopCmp
		}
	case opBinopJz:
		if in.a >= bopEq {
			return hBinopCmpJz
		}
	case opBinopJnz:
		if in.a >= bopEq {
			return hBinopCmpJnz
		}
	case opIncDec:
		// the pop is skipped, so it must not carry a step; control that
		// lands on it from elsewhere still runs it as a plain pop
		if i+1 < len(fn.code) && fn.code[i+1].op == opPop && fn.code[i+1].step == 0 {
			return hIncDecDiscard
		}
	case opLoadPtrKeep:
		if _, ok := fn.selfUpdates[int32(i)]; ok {
			return hSelfUpdateLoad
		}
	case opStoreConv:
		for _, su := range fn.selfUpdates {
			if su.store == int32(i) {
				return hSelfUpdateStore
			}
		}
	}
	return opHandlers[in.op]
}

var opHandlers = [nOps]opFunc{
	opStep:         hStep,
	opConst:        hConst,
	opStr:          hStr,
	opLoadVar:      hLoadVarScalar, // overridden per instruction in handlerFor
	opAddrVar:      hAddrVar,
	opLoadPtr:      hLoadPtr,
	opLoadPtrKeep:  hLoadPtrKeep,
	opCheckPtr:     hCheckPtr,
	opIndexAddr:    hIndexAddr,
	opMemberAddr:   hMemberAddr,
	opBinop:        hBinop,
	opNot:          hNot,
	opNeg:          hNeg,
	opBitNot:       hBitNot,
	opIncDec:       hIncDec,
	opConv:         hConv,
	opJmp:          hJmp,
	opJz:           hJz,
	opJnz:          hJnz,
	opBool:         hBool,
	opPop:          hPop,
	opStoreConv:    hStoreConv,
	opStructCopy:   hStructCopy,
	opCallV:        hCall,
	opCallD:        hCall,
	opRetVal:       hRet,
	opRetNone:      hRet,
	opGotoEscape:   hGotoEscape,
	opAllocVar:     hAllocVar,
	opAllocGlobal:  hAllocGlobal,
	opInitCell:     hInitCell,
	opZeroFill:     hZeroFill,
	opZeroAll:      hZeroAll,
	opStaticBegin:  hStaticBegin,
	opStaticBind:   hStaticBind,
	opPrintfBegin:  hPrintfBegin,
	opPrintfFeed:   hPrintfFeed,
	opPrintfNoArg:  hPrintfNoArg,
	opAbort:        hAbort,
	opExit:         hExit,
	opUB:           hUB,
	opLimit:        hLimit,
	opCallMain:     hCallMain,
	opHalt:         hHalt,
	opLoadVarBinop: hLoadVarBinop,
	opConstBinop:   hConstBinop,
	opBinopJz:      hBinopJz,
	opBinopJnz:     hBinopJnz,
	opConstStore:   hConstStore,
}

// ---------------------------------------------------------------- handlers
//
// Each handler mirrors the corresponding exec() switch case exactly; the
// only difference is that frame-dependent cases resolve the current frame
// from vm.frames instead of exec's cached local.

func hStep(vm *vmState, in *instr, pc int32) int32 { return pc + 1 }

func hConst(vm *vmState, in *instr, pc int32) int32 {
	vm.push(vm.p.consts[in.a])
	return pc + 1
}

func hStr(vm *vmState, in *instr, pc int32) int32 {
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
	return pc + 1
}

func hLoadVarScalar(vm *vmState, in *instr, pc int32) int32 {
	vr := &vm.p.varRefs[in.a]
	h := vm.varObj(vr)
	cell := &vm.objs[h].cells[0]
	if cell.init != cellSet && !vm.readMarked(h, 0, cell, pc) {
		vm.ub(ubUninitRead, in.pos, "object %s cell %d", vm.p.names[vr.name], 0)
	}
	vm.push(cell.val)
	return pc + 1
}

func hLoadVarAgg(vm *vmState, in *instr, pc int32) int32 {
	vr := &vm.p.varRefs[in.a]
	vm.push(mkPtr(vm.varObj(vr), 0, vr.elem))
	return pc + 1
}

func hAddrVar(vm *vmState, in *instr, pc int32) int32 {
	vr := &vm.p.varRefs[in.a]
	vm.push(mkPtr(vm.varObj(vr), 0, vr.elem))
	return pc + 1
}

func hLoadPtr(vm *vmState, in *instr, pc int32) int32 {
	p := vm.pop()
	vm.push(vm.load(p, in.pos, in.a, in.b != 0))
	return pc + 1
}

func hLoadPtrKeep(vm *vmState, in *instr, pc int32) int32 {
	p := *vm.top()
	vm.push(vm.load(p, in.pos, in.a, in.b != 0))
	return pc + 1
}

// hSelfUpdateLoad is the scalar opLoadPtrKeep that reads a self-update
// statement's int or long lvalue (`x += e`, `x -= e`): its slow branch
// asks the loop detector whether a marked counter may be read here
// (loop.go).
func hSelfUpdateLoad(vm *vmState, in *instr, pc int32) int32 {
	p := *vm.top()
	vm.checkAccess(p, in.pos)
	cell := &vm.objs[p.Obj].cells[p.off()]
	if cell.init != cellSet && !vm.readMarked(p.Obj, p.off(), cell, pc) {
		vm.ub(ubUninitRead, in.pos, "object %s cell %d", vm.objName(p.Obj), p.off())
	}
	vm.push(cell.val)
	return pc + 1
}

func hCheckPtr(vm *vmState, in *instr, pc int32) int32 {
	if vm.top().Kind != kPtr {
		vm.ub(ubNullDeref, in.pos, "%s", vm.p.msgs[in.a])
	}
	return pc + 1
}

func hIndexAddr(vm *vmState, in *instr, pc int32) int32 {
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
	return pc + 1
}

func hMemberAddr(vm *vmState, in *instr, pc int32) int32 {
	base := vm.pop()
	vm.push(mkPtr(base.Obj, base.off()+int64(in.a), in.b))
	return pc + 1
}

func hBinop(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	vm.push(vm.binop(in.a, x, y, in.pos))
	return pc + 1
}

// hBinopCmp is the comparison specialization: both-integer operands skip
// the kind dispatch straight into intCompare (the dominant case in loop
// conditions); anything else falls back to the full binop.
func hBinopCmp(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	if x.Kind == kInt && y.Kind == kInt {
		vm.push(boolValue(intCompare(in.a, x, y)))
	} else {
		vm.push(vm.binop(in.a, x, y, in.pos))
	}
	return pc + 1
}

func hNot(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	vm.push(boolValue(v.isZero()))
	return pc + 1
}

func hNeg(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	if v.Kind == kFloat {
		vm.push(vm.p.tt.mkFloat(-fOf(v), v.TIdx))
	} else {
		t := typeOf(v)
		zero := Value{Kind: kInt, TIdx: t}
		vm.push(vm.intArith(bopSub, zero, v, in.pos, t))
	}
	return pc + 1
}

func hBitNot(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	if v.Kind != kInt {
		vm.ub(ubShift, in.pos, "~ on non-integer")
	}
	t := promote(typeOf(v))
	vm.push(vm.p.tt.mkInt(^iOf(v), t))
	return pc + 1
}

func hIncDec(vm *vmState, in *instr, pc int32) int32 {
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
	return pc + 1
}

// hIncDecDiscard is opIncDec followed by an opPop without a step: a ++
// or -- whose value is discarded. While the loop detector verifies a
// counter proof, it bumps a marked counter cell in place and keeps the
// mark (loop.go); otherwise it is hIncDec without the push and pop.
func hIncDecDiscard(vm *vmState, in *instr, pc int32) int32 {
	p := vm.pop()
	op := bopAdd
	if in.b&incDec != 0 {
		op = bopSub
	}
	one := Value{Kind: kInt, Bits: 1, TIdx: basicInt}
	if vm.loop.phase == loopVerify && in.b&incAgg == 0 {
		vm.checkAccess(p, in.pos)
		if cell := &vm.objs[p.Obj].cells[p.off()]; cell.init == cellCounter {
			cell.val = vm.addSub(op, cell.val, one, in.pos, typeOf(cell.val))
			vm.loop.margin++
			return pc + 2
		}
	}
	old := vm.load(p, in.pos, in.a, in.b&incAgg != 0)
	vm.store(p, vm.addSub(op, old, one, in.pos, typeOf(old)), in.pos)
	return pc + 2
}

func hConv(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	vm.push(vm.convertAt(v, in.a, in.pos))
	return pc + 1
}

func hJmp(vm *vmState, in *instr, pc int32) int32 { return in.a }

func hJz(vm *vmState, in *instr, pc int32) int32 {
	if vm.pop().isZero() {
		return in.a
	}
	return pc + 1
}

func hJnz(vm *vmState, in *instr, pc int32) int32 {
	if !vm.pop().isZero() {
		return in.a
	}
	return pc + 1
}

func hBool(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	vm.push(boolValue(!v.isZero()))
	return pc + 1
}

func hPop(vm *vmState, in *instr, pc int32) int32 {
	vm.stack = vm.stack[:len(vm.stack)-1]
	return pc + 1
}

func hStoreConv(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	p := vm.pop()
	cv := vm.convertAt(v, in.a, in.pos)
	vm.store(p, cv, in.pos)
	vm.push(cv)
	return pc + 1
}

// hSelfUpdateStore is the opStoreConv of a self-update statement. While
// the loop detector verifies a counter proof, a store that completes the
// statement's pending counter read keeps the counter marked (loop.go);
// otherwise it is hStoreConv.
func hSelfUpdateStore(vm *vmState, in *instr, pc int32) int32 {
	if vm.loop.phase == loopVerify && vm.storeMarked(in, pc) {
		return pc + 1
	}
	return hStoreConv(vm, in, pc)
}

func hStructCopy(vm *vmState, in *instr, pc int32) int32 {
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
		if cell.init != cellSet && !vm.unmark(cell) {
			vm.ub(ubUninitRead, in.pos, "copy of uninitialized struct field")
		}
		vm.store(mkPtr(lhs.Obj, lhs.off()+i, lhs.TIdx), cell.val, in.pos)
	}
	vm.push(mkPtr(lhs.Obj, lhs.off(), in.b))
	return pc + 1
}

func hCall(vm *vmState, in *instr, pc int32) int32 {
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
	vm.tfn = fn2
	return 0
}

func hCallMain(vm *vmState, in *instr, pc int32) int32 {
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
	vm.tfn = fn2
	return 0
}

func hRet(vm *vmState, in *instr, pc int32) int32 {
	if in.op == opRetVal {
		vm.retVal = vm.pop()
		vm.hasRet = true
	} else {
		vm.hasRet = false
	}
	fr := &vm.frames[len(vm.frames)-1]
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
	vm.tfn = vm.frames[len(vm.frames)-1].fn
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
	return retpc
}

func hGotoEscape(vm *vmState, in *instr, pc int32) int32 {
	fr := &vm.frames[len(vm.frames)-1]
	vm.ub(ubOutOfBounds, fr.callPos, "goto to label %q escaped function", vm.p.names[in.a])
	panic("unreachable")
}

func hAllocVar(vm *vmState, in *instr, pc int32) int32 {
	d := &vm.p.decls[in.a]
	h := vm.alloc(d.allocT, d.name)
	vm.frames[len(vm.frames)-1].locals[d.slot] = h
	if in.b != 0 {
		vm.push(mkPtr(h, 0, tidxNone))
	}
	return pc + 1
}

func hAllocGlobal(vm *vmState, in *instr, pc int32) int32 {
	d := &vm.p.decls[in.a]
	h := vm.alloc(d.allocT, d.name)
	vm.globals[d.slot] = h
	if in.b != 0 {
		vm.push(mkPtr(h, 0, tidxNone))
	}
	return pc + 1
}

func hInitCell(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	p := vm.top()
	cv := vm.convertAt(v, in.a, in.pos)
	vm.objs[p.Obj].cells[in.b] = vCell{val: cv, init: cellSet}
	return pc + 1
}

func hZeroFill(vm *vmState, in *instr, pc int32) int32 {
	p := vm.top()
	zv := vm.p.consts[in.a]
	cells := vm.objs[p.Obj].cells
	for i := range cells {
		if cells[i].init == cellUninit {
			cells[i] = vCell{val: zv, init: cellSet}
		}
	}
	return pc + 1
}

func hZeroAll(vm *vmState, in *instr, pc int32) int32 {
	p := vm.top()
	zv := vm.p.consts[in.a]
	cells := vm.objs[p.Obj].cells
	for i := range cells {
		cells[i] = vCell{val: zv, init: cellSet}
	}
	return pc + 1
}

func hStaticBegin(vm *vmState, in *instr, pc int32) int32 {
	si := &vm.p.statics[in.a]
	if vm.statics[si.sslot] != 0 {
		return in.b
	}
	vm.nextID++
	h := vm.allocRaw(vm.p.tt.cells(si.allocT), vm.nextID, si.name, true, true)
	vm.statics[si.sslot] = h
	vm.push(mkPtr(h, 0, tidxNone))
	return pc + 1
}

func hStaticBind(vm *vmState, in *instr, pc int32) int32 {
	si := &vm.p.statics[in.a]
	fr := &vm.frames[len(vm.frames)-1]
	fr.locals[si.lslot] = vm.statics[si.sslot]
	return pc + 1
}

func hPrintfBegin(vm *vmState, in *instr, pc int32) int32 {
	fv := vm.pop()
	format := vm.readCString(fv, in.pos)
	vm.pstates = append(vm.pstates, pstate{format: format, pos: in.pos})
	if !vm.pfAdvance() {
		vm.pfFinish()
		return in.b
	}
	return pc + 1
}

func hPrintfFeed(vm *vmState, in *instr, pc int32) int32 {
	v := vm.pop()
	vm.pfApply(v)
	if !vm.pfAdvance() {
		vm.pfFinish()
		return in.b
	}
	return pc + 1
}

func hPrintfNoArg(vm *vmState, in *instr, pc int32) int32 {
	vm.limit("printf: missing argument for conversion at %s", vm.pos(in.pos))
	panic("unreachable")
}

func hAbort(vm *vmState, in *instr, pc int32) int32 {
	panic(abortPanic{})
}

func hExit(vm *vmState, in *instr, pc int32) int32 {
	code := 0
	if in.b != 0 {
		code = int(uint8(iOf(vm.pop())))
	}
	panic(exitPanic{code: code})
}

func hUB(vm *vmState, in *instr, pc int32) int32 {
	vm.ub(in.a, in.pos, "%s", vm.p.msgs[in.b])
	panic("unreachable")
}

func hLimit(vm *vmState, in *instr, pc int32) int32 {
	panic(limitPanic{&interp.LimitError{Msg: vm.p.msgs[in.a]}})
}

func hHalt(vm *vmState, in *instr, pc int32) int32 {
	vm.tfn = nil
	return 0
}

// ------------------------------------------------------- superinstructions

func hLoadVarBinop(vm *vmState, in *instr, pc int32) int32 {
	vr := &vm.p.varRefs[in.a]
	h := vm.varObj(vr)
	cell := &vm.objs[h].cells[0]
	if cell.init != cellSet && !vm.readMarked(h, 0, cell, pc) {
		vm.ub(ubUninitRead, in.pos, "object %s cell %d", vm.p.names[vr.name], 0)
	}
	nxt := &vm.tfn.code[pc+1]
	x := vm.pop()
	vm.push(vm.binop(nxt.a, x, cell.val, nxt.pos))
	return pc + 2
}

func hConstBinop(vm *vmState, in *instr, pc int32) int32 {
	nxt := &vm.tfn.code[pc+1]
	x := vm.pop()
	vm.push(vm.binop(nxt.a, x, vm.p.consts[in.a], nxt.pos))
	return pc + 2
}

func hBinopJz(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	if vm.binop(in.a, x, y, in.pos).isZero() {
		return vm.tfn.code[pc+1].a
	}
	return pc + 2
}

func hBinopJnz(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	if !vm.binop(in.a, x, y, in.pos).isZero() {
		return vm.tfn.code[pc+1].a
	}
	return pc + 2
}

// hBinopCmpJz/hBinopCmpJnz add the integer-comparison fast path to the
// fused compare+branch pair — the single hottest shape in loop headers.
func hBinopCmpJz(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	var taken bool
	if x.Kind == kInt && y.Kind == kInt {
		taken = !intCompare(in.a, x, y)
	} else {
		taken = vm.binop(in.a, x, y, in.pos).isZero()
	}
	if taken {
		return vm.tfn.code[pc+1].a
	}
	return pc + 2
}

func hBinopCmpJnz(vm *vmState, in *instr, pc int32) int32 {
	y := vm.pop()
	x := vm.pop()
	var taken bool
	if x.Kind == kInt && y.Kind == kInt {
		taken = intCompare(in.a, x, y)
	} else {
		taken = !vm.binop(in.a, x, y, in.pos).isZero()
	}
	if taken {
		return vm.tfn.code[pc+1].a
	}
	return pc + 2
}

func hConstStore(vm *vmState, in *instr, pc int32) int32 {
	nxt := &vm.tfn.code[pc+1]
	p := vm.pop()
	cv := vm.convertAt(vm.p.consts[in.a], nxt.a, nxt.pos)
	vm.store(p, cv, nxt.pos)
	vm.push(cv)
	return pc + 2
}
