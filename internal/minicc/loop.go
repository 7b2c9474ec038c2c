package minicc

import (
	"slices"

	"spe/internal/interp"
)

// Loop detection. A seeded wrong-code bug can turn a compiled binary's
// loop into one that never exits, and such a run goes on until the step
// budget. The threaded loop proves, partway through such a run, that it
// can only end at the step budget, then jumps the step count forward by
// whole loop periods and runs the last partial period normally. The
// budget fires at the same instruction with the same Steps and output as
// without the jump, so every ExecResult field is unchanged by
// construction.
//
// The detector runs at block transitions, the one place every cycle
// crosses: the threaded loop's block tick compares steps against vm.stop
// = min(MaxSteps, the detector's next stop), and its slow path (atStop)
// raises the step timeout exactly like tick, or runs the detector at the
// block about to execute. At a probe point the detector snapshots the
// machine and watches the next probeWindow steps, stopping at every block
// transition, for a return to the snapshot's block in the same call
// instance with the same state. The machine is deterministic, so such a
// state repeats its period forever: it never exits, traps, prints or
// allocates. The steps of k whole periods are added, and so are k
// periods' coverage hits, which are the same in every period.
//
// The state compared is everything a later step can read: the frame's
// registers and block, every slab object's cells and live flag (globals,
// statics and frame objects), the slab's fill and the next object ID,
// the output length, the interned string objects (stores can write
// them), and a fused compare-branch's pending verdict. Calls are Go
// recursion, so a snapshot cannot see a caller's registers; each call
// gets a number, and a recurrence must happen in the snapshot's call
// instance. Every caller is then suspended in the same call throughout
// the period, so its frame is frozen. A call made inside the period
// returns inside it, and an allocating callee changes the slab fill.
//
// A failed window doubles the next probe point. The switch loop runs no
// detector and stays the reference that tests and -paranoid compare the
// threaded loop against.
const (
	firstProbe   = 4096    // steps before the first snapshot
	probeWindow  = 2048    // steps a snapshot is watched for a recurrence
	maxSnapCells = 1 << 14 // larger object states are not snapshotted
)

// Detector phases.
const (
	loopIdle  uint8 = iota // waiting for the next probe point
	loopWatch              // snapshot taken, watching for a recurrence
	loopDone               // skipped, or nothing left to gain
)

// loopState is the detector's per-run state. Its buffers are reused
// across the runs of one execState.
type loopState struct {
	phase   uint8
	skipped bool  // the detector cut this run short
	probe   int64 // steps of the next probe point
	end     int64 // last step of the watch window
	snap    snapshot
}

// snapshot is the machine state the detector compares against, taken
// right after a block tick.
type snapshot struct {
	call    int64 // call instance
	block   *Block
	steps   int64
	objUsed int
	nextID  int
	nout    int
	nstrs   int
	brReady bool
	brTaken bool
	regs    []interp.Value
	cells   []interp.Cell // slab objects, then string objects
	live    []bool        // slab objects
	counts  []int         // coverage counts, when a recorder is attached
}

func (ls *loopState) reset() {
	ls.phase = loopIdle
	ls.skipped = false
	ls.probe = firstProbe
}

// atStop is the threaded loop's slow path, entered when a block tick
// passes vm.stop: past MaxSteps it raises the step timeout exactly like
// tick, otherwise it runs the loop detector at the block about to
// execute.
func (m *vm) atStop(call int64, b *Block, regs []interp.Value) {
	if m.steps > m.cfg.MaxSteps {
		panic(vmTimeout{})
	}
	ls := &m.st.loop
	switch ls.phase {
	case loopIdle:
		if !m.takeSnapshot(call, b, regs) {
			m.failWindow()
			return
		}
		ls.phase = loopWatch
		ls.end = m.steps + probeWindow
		m.stop = m.steps
	case loopWatch:
		m.watch(call, b, regs)
	}
}

// failWindow abandons the current probe and schedules the next one at
// twice the step count of the last.
func (m *vm) failWindow() {
	ls := &m.st.loop
	ls.phase = loopIdle
	ls.probe *= 2
	m.stop = min(m.cfg.MaxSteps, ls.probe)
}

// watch runs at every block transition of the watch window.
func (m *vm) watch(call int64, b *Block, regs []interp.Value) {
	ls := &m.st.loop
	if m.steps > ls.end {
		m.failWindow()
		return
	}
	m.stop = m.steps
	if call != ls.snap.call || b != ls.snap.block || !m.sameState(regs) {
		return
	}
	period := m.steps - ls.snap.steps
	if k := (m.cfg.MaxSteps - m.steps) / period; k > 0 {
		m.steps += k * period
		m.cov.addPeriods(ls.snap.counts, k)
		ls.skipped = true
	}
	ls.phase = loopDone
	m.stop = m.cfg.MaxSteps
}

// takeSnapshot records the machine state at the entry of block b in call
// instance call, reporting false when the object state is too large to
// copy.
func (m *vm) takeSnapshot(call int64, b *Block, regs []interp.Value) bool {
	st := m.st
	s := &st.loop.snap
	s.cells, s.live = s.cells[:0], s.live[:0]
	for _, o := range st.objs[:st.objUsed] {
		if len(s.cells)+len(o.Cells) > maxSnapCells {
			return false
		}
		s.cells = append(s.cells, o.Cells...)
		s.live = append(s.live, o.Live)
	}
	for _, o := range st.strObjs {
		if len(s.cells)+len(o.Cells) > maxSnapCells {
			return false
		}
		s.cells = append(s.cells, o.Cells...)
	}
	s.call, s.block, s.steps = call, b, m.steps
	s.objUsed, s.nextID, s.nout, s.nstrs = st.objUsed, m.nextID, len(m.out), len(st.strObjs)
	s.brReady, s.brTaken = m.brReady, m.brTaken
	s.regs = append(s.regs[:0], regs...)
	if m.cov != nil {
		s.counts = append(s.counts[:0], m.cov.counts...)
	}
	return true
}

// sameState compares the machine, at the snapshot's block in the
// snapshot's call instance, with the snapshot.
func (m *vm) sameState(regs []interp.Value) bool {
	st := m.st
	s := &st.loop.snap
	if st.objUsed != s.objUsed || m.nextID != s.nextID || len(m.out) != s.nout || len(st.strObjs) != s.nstrs ||
		m.brReady != s.brReady || m.brTaken != s.brTaken || !slices.Equal(regs, s.regs) {
		return false
	}
	cells := s.cells
	for i, o := range st.objs[:st.objUsed] {
		if o.Live != s.live[i] || !slices.Equal(o.Cells, cells[:len(o.Cells)]) {
			return false
		}
		cells = cells[len(o.Cells):]
	}
	for _, o := range st.strObjs {
		if !slices.Equal(o.Cells, cells[:len(o.Cells)]) {
			return false
		}
		cells = cells[len(o.Cells):]
	}
	return true
}
