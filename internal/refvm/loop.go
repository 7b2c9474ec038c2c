package refvm

import (
	"math"
	"slices"
)

// Loop detection. Skeletal enumeration fills a loop's condition and its
// update with independent variables, as in `for (a = 0; b < 20; a++)`,
// and such a variant runs until the step limit. The threaded loop proves,
// partway through a run, that the next k loop periods repeat one period's
// instructions, then jumps the step count (and any counters) forward by
// those k periods and runs on normally. The run ends at the step limit,
// a UB or a loop exit at the same instruction with the same Steps,
// output and message as without the jump, so every Result field is
// unchanged by construction.
//
// The detector runs in the threaded loop's slow path, which the loop
// enters when steps pass vm.budget = min(MaxSteps, the detector's next
// stop). At a probe point it snapshots the machine and watches the next
// probeWindow steps, stopping at every step-bearing instruction, for a
// return to the snapshot's (function, pc) with equal frame, stack and
// object shape. At such a recurrence, P steps after the snapshot:
//
//   - Proof 1, exact recurrence: the state is identical. The machine is
//     deterministic, so it repeats that period forever: it never exits,
//     traps, prints or allocates. The steps of k whole periods are added.
//
//   - Proof 2, counters: the state differs only in a set C of cells that
//     hold a set int or long of the same type at both points. The
//     detector snapshots again, marks the C cells (cellCounter) and runs
//     one more period. A read of a marked cell lands in the read's
//     uninitialized-value slow branch (readMarked), and a store writes
//     cellSet, which fails the proof. Three accesses keep the mark.
//     hIncDecDiscard bumps a marked cell in place. A self-update
//     statement (compile.go's selfUpdate: `x += e`, `x -= e`,
//     `x = x + e`, `x = x - e`, `x = e + x`) reads the cell when the
//     lvalue address on the stack is that same cell, and its store
//     completes that read when the new value is an integer of the
//     cell's type before and after conversion. An opLoadVar whose value
//     the next instruction compares with a signed int or long constant
//     records the value, the operator and the constant (cmpRead). Every
//     other read clears every mark and abandons the proof.
//
//     If the period ends at the same (function, pc) after exactly P
//     steps with every other part of the state unchanged and every C
//     cell still marked, then by induction over the period each C cell
//     holds its start value plus an offset that does not depend on C,
//     no value the period stored outside C depended on C, and its
//     control flow depended on C only through the recorded comparisons.
//     So each later period repeats the same instructions and adds the
//     same delta D to each C cell for as long as every recorded
//     comparison keeps its result. The cells advance by k deltas and the
//     steps by k periods, with k capped twice. No value in the skipped
//     range can overflow, keeping the sum of |change| over the period's
//     bumps and self-update stores as margin, so the overflow UB, if
//     any, still happens at its true step. And each comparison gives the
//     same result for value + j·D for every j = 1..k (cmpRoom), so a
//     loop that exits on one is skipped to its last periods and exits at
//     its true step.
//
// A failed window doubles the next probe point. The switch loop (exec)
// runs no detector and stays an independent reference.
const (
	firstProbe   = 4096    // steps before the first snapshot
	probeWindow  = 2048    // steps a snapshot is watched for a recurrence
	maxSnapCells = 1 << 14 // larger object states are not snapshotted
)

// Detector phases.
const (
	loopIdle   uint8 = iota // waiting for the next probe point
	loopWatch               // snapshot taken, watching for a recurrence
	loopVerify              // counters marked, running one more period
	loopDone                // skipped, or nothing left to gain
)

// Proofs that cut a run short (loopState.skipped).
const (
	proofNone uint8 = iota
	proofCycle
	proofCounter
)

// loopState is the detector's per-run state. Its buffers are reused
// across runs.
type loopState struct {
	phase   uint8
	skipped uint8 // the proof that cut this run short
	probe   int64 // steps of the current or next probe point
	end     int64 // last step of the watch window; step the verified period ends at
	snap    snapshot
	// counters are the C cells of a counter proof with their values at
	// the verification snapshot. During the verified period margin sums
	// |change| over the bumps and self-update stores of marked cells,
	// pend is the self-update read awaiting its store, and cmps are the
	// recorded comparisons.
	counters []counterCell
	margin   uint64
	pend     pendingRead
	cmps     []cmpRead
}

type counterCell struct {
	obj   int32
	off   int32
	start int64
}

// pendingRead is a self-update statement's read of a marked cell: the
// store at pc store of fn, in the frame at depth frame, completes it.
type pendingRead struct {
	fn    *fnCode // nil: no read pending
	store int32
	frame int
	old   int64 // the value read
}

// cmpRead is a read of counters[counter] whose value w the next
// instruction compares with the constant c by operator op.
type cmpRead struct {
	counter int
	op      int32
	w, c    int64
}

// snapshot is the machine state the detector compares against.
type snapshot struct {
	fn      *fnCode
	pc      int32
	steps   int64
	objUsed int
	nextID  int32
	nout    int
	exit    int
	hasRet  bool
	retVal  Value
	cells   []vCell // objects 1..objUsed, concatenated
	live    []bool  // objects 1..objUsed
	slots   []int32 // globals, statics, string objects, then each frame's locals
	frames  []vframe
	stack   []Value
}

func (ls *loopState) reset() {
	ls.phase = loopIdle
	ls.skipped = proofNone
	ls.probe = firstProbe
	ls.counters = ls.counters[:0]
}

// overBudget is the threaded loop's slow path, entered when steps pass
// vm.budget: past MaxSteps it raises the step limit exactly like the
// switch loop, otherwise it runs the loop detector at the instruction
// about to execute.
func (vm *vmState) overBudget(in *instr, pc int32) {
	if vm.steps > vm.cfg.MaxSteps {
		vm.limit("step budget exhausted at %s", vm.pos(in.pos))
	}
	ls := &vm.loop
	switch ls.phase {
	case loopIdle:
		if len(vm.pstates) != 0 || !vm.takeSnapshot(pc) {
			vm.failWindow()
			return
		}
		ls.phase = loopWatch
		ls.end = vm.steps + probeWindow
		vm.budget = vm.steps
	case loopWatch:
		vm.watch(pc)
	case loopVerify:
		vm.verify(pc)
	}
}

// failWindow abandons the current probe and schedules the next one at
// twice the step count of the last.
func (vm *vmState) failWindow() {
	ls := &vm.loop
	ls.phase = loopIdle
	ls.probe *= 2
	vm.budget = min(vm.cfg.MaxSteps, ls.probe)
}

// finish ends detection for the run.
func (vm *vmState) finish() {
	vm.loop.phase = loopDone
	vm.budget = vm.cfg.MaxSteps
}

// watch runs at every step-bearing instruction of the watch window.
func (vm *vmState) watch(pc int32) {
	ls := &vm.loop
	if vm.steps > ls.end {
		vm.failWindow()
		return
	}
	vm.budget = vm.steps
	if vm.tfn != ls.snap.fn || pc != ls.snap.pc || !vm.sameShape() {
		return
	}
	period := vm.steps - ls.snap.steps
	if !vm.diffCells() {
		return // differs beyond counters; a later recurrence may match
	}
	if len(ls.counters) == 0 {
		if k := (vm.cfg.MaxSteps - vm.steps) / period; k > 0 {
			vm.steps += k * period
			ls.skipped = proofCycle
		}
		vm.finish()
		return
	}
	if vm.steps+2*period > vm.cfg.MaxSteps {
		// a verified period would leave no whole period to skip
		vm.finish()
		return
	}
	// snapshot again and mark the counters for one more period
	vm.takeSnapshot(pc)
	for i := range ls.counters {
		c := &ls.counters[i]
		cell := &vm.objs[c.obj].cells[c.off]
		c.start = int64(cell.val.Bits)
		cell.init = cellCounter
	}
	ls.margin, ls.pend, ls.cmps = 0, pendingRead{}, ls.cmps[:0]
	ls.phase = loopVerify
	ls.end = vm.steps + period
	vm.budget = ls.end - 1
}

// verify runs when steps reach the end of the verified period.
func (vm *vmState) verify(pc int32) {
	ls := &vm.loop
	ok := vm.steps == ls.end && vm.tfn == ls.snap.fn && pc == ls.snap.pc &&
		vm.sameShape() && vm.sameCellsExceptCounters()
	vm.unmarkCounters()
	if !ok {
		vm.failWindow()
		return
	}
	period := vm.steps - ls.snap.steps
	k := (vm.cfg.MaxSteps - vm.steps) / period
	for _, c := range ls.counters {
		k = min(k, vm.counterRoom(c))
	}
	for _, r := range ls.cmps {
		c := ls.counters[r.counter]
		d := int64(vm.objs[c.obj].cells[c.off].val.Bits) - c.start
		k = min(k, cmpRoom(r.op, r.w, r.c, d))
	}
	if k > 0 {
		for _, c := range ls.counters {
			cell := &vm.objs[c.obj].cells[c.off]
			v := int64(cell.val.Bits)
			d := v - c.start
			cell.val = vm.p.tt.mkInt(int64(uint64(v)+uint64(k)*uint64(d)), cell.val.TIdx)
		}
		vm.steps += k * period
		ls.skipped = proofCounter
	}
	vm.finish()
}

// counterRoom returns how many periods a counter cell can advance with
// every value it takes, plus the period's margin either side, inside its
// type's range.
func (vm *vmState) counterRoom(c counterCell) int64 {
	cell := &vm.objs[c.obj].cells[c.off]
	lo, hi := int64(math.MinInt32), int64(math.MaxInt32)
	if cell.val.TIdx == int32(basicLong) {
		lo, hi = math.MinInt64, math.MaxInt64
	}
	m := vm.loop.margin
	v := int64(cell.val.Bits)
	up, down := uint64(hi)-uint64(v), uint64(v)-uint64(lo)
	if up < m || down < m {
		return 0
	}
	// |delta| <= m < 2^63, so the difference is exact
	var room, d uint64
	switch delta := v - c.start; {
	case delta > 0:
		room, d = up-m, uint64(delta)
	case delta < 0:
		room, d = down-m, uint64(-delta)
	default:
		return math.MaxInt64
	}
	return int64(min(room/d, math.MaxInt64))
}

// cmpRoom returns the largest k for which the comparison w op c keeps
// its result at w + j·d for every j = 1..k. The value moves by |d| per
// period towards c or away from it. An ordering flips at most once, when
// the value reaches c or passes it; an equality holds at most at one
// period, and one that holds now fails at the next.
func cmpRoom(op int32, w, c, d int64) int64 {
	if d == 0 || w > c && d > 0 || w < c && d < 0 {
		return math.MaxInt64 // the value never reaches c
	}
	up := d > 0
	// the orderings that hold or fail alike at c and past it
	atOrPast := op == bopLt || op == bopGe
	if !up {
		atOrPast = op == bopGt || op == bopLe
	}
	if w == c {
		if atOrPast {
			return math.MaxInt64
		}
		return 0
	}
	dist, step := uint64(c)-uint64(w), uint64(d)
	if !up {
		dist, step = uint64(w)-uint64(c), -uint64(d)
	}
	n := dist / step // whole periods before the value reaches or passes c
	switch {
	case op == bopEq || op == bopNe:
		if dist%step != 0 {
			return math.MaxInt64 // the value steps over c
		}
		n-- // the value equals c at period n
	case atOrPast:
		if dist%step == 0 {
			n-- // the value reaches c at period n
		}
	}
	return int64(min(n, math.MaxInt64))
}

// readMarked is the slow branch of a scalar variable read at pc of the
// running function, for the cell at offset off of object h. The read of
// a marked counter cell passes, keeping the mark, when it is a
// self-update statement's read of its own lvalue with no other read
// pending, or when the next instruction compares the value with a signed
// int or long constant. Any other read of a marked cell abandons the
// counter proof. readMarked reports whether the cell now reads as set.
func (vm *vmState) readMarked(h int32, off int64, cell *vCell, pc int32) bool {
	if cell.init != cellCounter {
		return false
	}
	ls, fn := &vm.loop, vm.tfn
	if su, ok := fn.selfUpdates[pc]; ok && ls.pend.fn == nil {
		if a := vm.stack[len(vm.stack)-1-int(su.depth)]; a.Kind == kPtr && a.Obj == h && a.off() == off {
			ls.pend = pendingRead{fn: fn, store: su.store, frame: len(vm.frames), old: int64(cell.val.Bits)}
			return true
		}
	}
	if code := fn.code; code[pc].op == opLoadVar && code[pc+1].op == opConstBinop {
		op, k := code[pc+2].a, vm.p.consts[code[pc+1].a]
		if op >= bopEq && k.Kind == kInt && (k.TIdx == basicInt || k.TIdx == basicLong) {
			for i, c := range ls.counters {
				if c.obj == h && int64(c.off) == off {
					ls.cmps = append(ls.cmps, cmpRead{counter: i, op: op, w: int64(cell.val.Bits), c: int64(k.Bits)})
					return true
				}
			}
		}
	}
	return vm.unmark(cell)
}

// storeMarked runs a self-update statement's store at pc while a counter
// proof is verified. When the store completes the pending read, the cell
// is still marked and the value is an integer of the cell's type that
// converts to itself, it stores the value, keeps the mark, adds |change|
// to the margin and reports true. Otherwise the caller stores normally,
// which fails the proof if the cell is marked.
func (vm *vmState) storeMarked(in *instr, pc int32) bool {
	ls := &vm.loop
	pr := ls.pend
	if pr.fn != vm.tfn || pr.store != pc || pr.frame != len(vm.frames) {
		return false
	}
	ls.pend = pendingRead{}
	n := len(vm.stack)
	v, p := vm.stack[n-1], vm.stack[n-2]
	// an integer converts to the int or long lvalue type without effects
	if v.Kind != kInt || vm.convertAt(v, in.a, in.pos) != v {
		return false
	}
	vm.checkAccess(p, in.pos)
	cell := &vm.objs[p.Obj].cells[p.off()]
	if cell.init != cellCounter || v.TIdx != cell.val.TIdx {
		return false
	}
	nv := int64(v.Bits)
	change := uint64(nv) - uint64(pr.old)
	if nv < pr.old {
		change = uint64(pr.old) - uint64(nv)
	}
	if ls.margin += change; ls.margin < change {
		ls.margin = math.MaxUint64 // saturate
	}
	cell.val = v
	vm.stack[n-2] = v
	vm.stack = vm.stack[:n-1]
	return true
}

// unmark is the slow branch of a value read. A read of a counter cell
// abandons the counter proof and clears every mark; unmark reports
// whether the cell now reads as set.
func (vm *vmState) unmark(cell *vCell) bool {
	if cell.init != cellCounter {
		return false
	}
	vm.unmarkCounters()
	vm.failWindow()
	return true
}

// unmarkCounters returns every still-marked counter cell to cellSet.
func (vm *vmState) unmarkCounters() {
	for _, c := range vm.loop.counters {
		if cell := &vm.objs[c.obj].cells[c.off]; cell.init == cellCounter {
			cell.init = cellSet
		}
	}
}

// takeSnapshot records the machine state at the instruction about to
// execute, reporting false when the object state is too large to copy.
func (vm *vmState) takeSnapshot(pc int32) bool {
	s := &vm.loop.snap
	if vm.objUsed > maxSnapCells {
		return false
	}
	s.cells, s.live = s.cells[:0], s.live[:0]
	for h := 1; h <= vm.objUsed; h++ {
		o := &vm.objs[h]
		if len(s.cells)+len(o.cells) > maxSnapCells {
			return false
		}
		s.cells = append(s.cells, o.cells...)
		s.live = append(s.live, o.live)
	}
	s.fn, s.pc, s.steps = vm.tfn, pc, vm.steps
	s.objUsed, s.nextID = vm.objUsed, vm.nextID
	s.nout, s.exit, s.hasRet, s.retVal = len(vm.out), vm.exit, vm.hasRet, vm.retVal
	s.slots = append(s.slots[:0], vm.globals...)
	s.slots = append(s.slots, vm.statics...)
	s.slots = append(s.slots, vm.strObjs...)
	s.frames = append(s.frames[:0], vm.frames...)
	for _, fr := range vm.frames {
		s.slots = append(s.slots, fr.locals...)
	}
	s.stack = append(s.stack[:0], vm.stack...)
	return true
}

// sameShape compares everything but object cells with the snapshot.
func (vm *vmState) sameShape() bool {
	s := &vm.loop.snap
	if vm.objUsed != s.objUsed || vm.nextID != s.nextID || len(vm.out) != s.nout ||
		vm.exit != s.exit || vm.hasRet != s.hasRet || vm.retVal != s.retVal ||
		len(vm.pstates) != 0 || len(vm.frames) != len(s.frames) || len(vm.stack) != len(s.stack) {
		return false
	}
	if !slices.Equal(vm.stack, s.stack) {
		return false
	}
	// the slot tables of one program, and the locals of frames running
	// the same functions, have the snapshot's lengths
	slots := s.slots
	for _, part := range [][]int32{vm.globals, vm.statics, vm.strObjs} {
		if !slices.Equal(part, slots[:len(part)]) {
			return false
		}
		slots = slots[len(part):]
	}
	for i := range vm.frames {
		fr, sf := &vm.frames[i], &s.frames[i]
		if fr.fn != sf.fn || fr.retpc != sf.retpc || fr.callPos != sf.callPos ||
			fr.want != sf.want || fr.isMain != sf.isMain || !slices.Equal(fr.locals, slots[:len(fr.locals)]) {
			return false
		}
		slots = slots[len(fr.locals):]
	}
	for h := 1; h <= vm.objUsed; h++ {
		if vm.objs[h].live != s.live[h-1] {
			return false
		}
	}
	return true
}

// diffCells compares object cells with the snapshot of a machine whose
// shape matches it. It collects the differing cells as counters and
// reports false when one of them is not a counter: a set int or long of
// the same type on both sides.
func (vm *vmState) diffCells() bool {
	ls := &vm.loop
	ls.counters = ls.counters[:0]
	i := 0
	for h := 1; h <= vm.objUsed; h++ {
		for off, cell := range vm.objs[h].cells {
			old := &ls.snap.cells[i]
			i++
			if cell == *old {
				continue
			}
			if !isCounter(cell) || !isCounter(*old) || cell.val.TIdx != old.val.TIdx {
				return false
			}
			ls.counters = append(ls.counters, counterCell{obj: int32(h), off: int32(off)})
		}
	}
	return true
}

func isCounter(c vCell) bool {
	return c.init == cellSet && c.val.Kind == kInt &&
		(c.val.TIdx == int32(basicInt) || c.val.TIdx == int32(basicLong))
}

// sameCellsExceptCounters reports whether every cell but the counters
// equals the snapshot and every counter is still marked.
func (vm *vmState) sameCellsExceptCounters() bool {
	marked := 0
	i := 0
	for h := 1; h <= vm.objUsed; h++ {
		for _, cell := range vm.objs[h].cells {
			old := &vm.loop.snap.cells[i]
			i++
			if cell.init == cellCounter {
				marked++
			} else if cell != *old {
				return false
			}
		}
	}
	return marked == len(vm.loop.counters)
}
