package minicc

// This file extends the repository's template/clone/patch discipline into
// the compiler: all variants of a skeleton share their syntax, so the
// frontend's work — lowering the AST to the CFG IR — is done once per
// template program and replayed per variant, instead of re-walking the tree
// for every filling.
//
// The cache rests on three facts established by the lowering code:
//
//  1. The emitted IR does not depend on the active bug set or the coverage
//     recorder. Bugs only surface as MaybeCrash panics and coverage only as
//     Hit calls, so one IR template serves every (version, -O) compilation
//     of a variant; the hits and crash checks are recorded as an ordered
//     event trace and replayed against the live recorder and bug set.
//     Crash triggers that read the AST (equal-operand ternaries, operand
//     types) are replayed as closures over the template's tree — hole
//     rebinding patches that tree in place, so a replayed trigger sees
//     exactly the current variant's symbols.
//
//  2. Register promotion is a function of the skeleton, not the filling:
//     every local is bound at its declaration (declarations are never
//     holes), so rebinding a hole cannot renumber registers. The only
//     exception is a hole directly under '&' — refilling it moves the
//     address-taken set, which can demote a register variable to memory —
//     and such holes are marked volatile: a template serves only fills
//     whose volatile holes sit at the template's base symbols.
//
//  3. A hole's use lowers to one of two shapes. A register-promoted symbol
//     contributes no instructions, only its register number in the operand
//     slots its value flows into; a memory-resident symbol contributes an
//     OpAddrVar whose Sym field names it. Both are recorded as patch sites
//     (the former via sentinel registers during the traced lowering), and
//     instantiation rewrites exactly those sites. A refill that changes a
//     hole's shape (register ↔ memory) would change the instruction
//     sequence itself, so a template serves only fills whose moved holes
//     keep their base symbols' shapes.
//
// Facts 2 and 3 split a program's fills into shape classes: each hole's
// reg/mem shape, plus the symbol of every volatile hole. A template serves
// exactly the fills of its base fill's class (patchable), so the cache
// keeps a short list of templates per program, one per class, each built
// from the first fill of its class to be compiled. Past maxClassTemplates
// classes, or when the program's lowering fails structurally, a
// compilation lowers fresh.
//
// Per variant and compiler configuration the cached path therefore costs:
// find the class template (the first in the list that is patchable), replay
// the event trace, memcpy the template blocks into the template's reusable
// scratch clone (the optimization passes mutate their input, so they get a
// private copy), and rewrite the patch sites of the holes that moved. The
// -paranoid mode cross-checks every patched lowering against a from-scratch
// Lower of the same tree, instruction for instruction.

import (
	"fmt"
	"sort"

	"spe/internal/cc"
)

// Cache is the per-worker reusable backend state: IR templates keyed on the
// identity of the analyzed template program, one per shape class, the
// optimization passes' scratch tables, and the pooled VM execution state.
// A Cache is strictly single-goroutine — campaign workers each hold
// their own — and the outcome returned by RunCached aliases cache-owned
// scratch storage that the next RunCached call on the same cache recycles.
type Cache struct {
	templates map[*cc.Program]*templateSet
	exec      *execState
	passes    passCtx
	stats     CacheStats
}

// maxClassTemplates caps the shape-class templates one program keeps, which
// bounds the cache's memory: a program's class count grows with the walk,
// since each volatile hole multiplies it by its candidates. Measured at one
// worker without a cap, one paper seed held 80 templates after a
// 100-variant walk and 524 after a 1,000-variant walk, which doubled the
// process's peak RSS (17 to 33 MB). At 16, 7.5% of the paper seeds'
// compilations across all four releases lower fresh, and 4.7% of the
// generated testsuite's, against 9.5% and 37% at 8.
const maxClassTemplates = 16

// templateSet is one program's class templates, in build order.
type templateSet struct {
	list []*irTemplate
	// closed stops further builds once one failed structurally (lowering
	// rejected a construct); compilations no template serves lower fresh.
	closed bool
}

// CacheStats counts the cache's template activity: how many class
// templates were lowered (at most maxClassTemplates per program per
// cache; a build that fails structurally counts, and is the program's
// last), how many compilations were served by trace replay + patch, and
// how many lowered fresh (past the cap, or on a program whose lowering
// fails structurally). It also splits executions by dispatch engine,
// counts batched runs, and counts the runs the loop detector cut short.
// Plain ints — the cache is single-goroutine — read by the campaign's
// telemetry once per shard.
type CacheStats struct {
	TemplateBuilds int64
	Replays        int64
	FreshLowerings int64
	// ThreadedRuns/SwitchRuns split cached executions by engine.
	ThreadedRuns int64
	SwitchRuns   int64
	// BatchRuns counts runs served through RunBatch; Batches counts the
	// RunBatch calls themselves.
	BatchRuns int64
	Batches   int64
	// LoopSkips counts executions the threaded loop's loop detector cut
	// short (see loop.go).
	LoopSkips int64
}

// Sub returns the stats delta since base.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		TemplateBuilds: s.TemplateBuilds - base.TemplateBuilds,
		Replays:        s.Replays - base.Replays,
		FreshLowerings: s.FreshLowerings - base.FreshLowerings,
		ThreadedRuns:   s.ThreadedRuns - base.ThreadedRuns,
		SwitchRuns:     s.SwitchRuns - base.SwitchRuns,
		BatchRuns:      s.BatchRuns - base.BatchRuns,
		Batches:        s.Batches - base.Batches,
		LoopSkips:      s.LoopSkips - base.LoopSkips,
	}
}

// Stats returns the cache's cumulative activity counters.
func (ca *Cache) Stats() CacheStats { return ca.stats }

// NewCache returns an empty backend cache.
func NewCache() *Cache {
	return &Cache{templates: make(map[*cc.Program]*templateSet), exec: newExecState()}
}

// templatesOf returns prog's class templates, empty on first use.
func (ca *Cache) templatesOf(prog *cc.Program) *templateSet {
	ts, ok := ca.templates[prog]
	if !ok {
		ts = &templateSet{}
		ca.templates[prog] = ts
	}
	return ts
}

// classTemplate returns the template of the current fill's shape class,
// building it from the current fill when the class is new and the set has
// room; nil means the compilation lowers fresh. holes are the program's
// hole identifiers (skeleton.Instance.HoleIdents), whose current Sym
// bindings define each variant.
func (ca *Cache) classTemplate(ts *templateSet, prog *cc.Program, holes []*cc.Ident) *irTemplate {
	for _, tm := range ts.list {
		if tm.patchable() {
			return tm
		}
	}
	if ts.closed || len(ts.list) == maxClassTemplates {
		return nil
	}
	tm := buildTemplate(prog, holes)
	ca.stats.TemplateBuilds++
	if tm == nil {
		ts.closed = true
		return nil
	}
	ts.list = append(ts.list, tm)
	return tm
}

// RunCached is Compiler.Run with template-cached lowering: each shape
// class of the program is lowered once per Cache, and each call patches
// the recorded hole sites to the holes' current symbol bindings instead of
// re-lowering. It is byte-for-byte equivalent to Run — same coverage hits,
// same seeded crashes, same optimized IR, same execution — which the
// campaign pins with reuse-on/off report equivalence tests. With paranoid
// set, every template-derived lowering is additionally compared against a
// fresh Lower of the same program; a divergence is returned as a non-nil
// error (the campaign aborts on it), and so is a divergence of an
// execution the loop detector cut short from a fresh run of the switch
// loop.
//
// Ownership: the returned outcome (including Compile.Program) aliases the
// cache's scratch clone and is valid until the next RunCached on the same
// Cache. Holes must be the same slice identity-wise for every call with the
// same prog.
func (c *Compiler) RunCached(ca *Cache, prog *cc.Program, holes []*cc.Ident, cfg ExecConfig, paranoid bool) (*RunOutcome, error) {
	tm := ca.classTemplate(ca.templatesOf(prog), prog, holes)
	return c.runOnce(ca, tm, prog, c.bugSet(), cfg, paranoid)
}

// RunBatch runs n variants of one skeleton through the cached backend,
// amortizing the per-call setup (bug-set resolution, the lookup of the
// program's template list) across the whole shard; each variant then
// finds its class template in that list. bind(i) patches the program to
// variant i — the campaign rebinds holes via the skeleton instance — and
// returns that variant's execution bounds; yield(i, ro) observes the
// outcome while the program is still bound to variant i (the outcome
// aliases cache scratch, exactly as with RunCached). Variants run in
// ascending order; the first error from bind or yield aborts the batch.
func (c *Compiler) RunBatch(ca *Cache, prog *cc.Program, holes []*cc.Ident, paranoid bool, n int, bind func(i int) (ExecConfig, error), yield func(i int, ro *RunOutcome) error) error {
	bugs := c.bugSet()
	ts := ca.templatesOf(prog)
	ca.stats.Batches++
	for i := 0; i < n; i++ {
		cfg, err := bind(i)
		if err != nil {
			return err
		}
		ro, err := c.runOnce(ca, ca.classTemplate(ts, prog, holes), prog, bugs, cfg, paranoid)
		if err != nil {
			return err
		}
		ca.stats.BatchRuns++
		if err := yield(i, ro); err != nil {
			return err
		}
	}
	return nil
}

// runOnce is the per-variant core shared by RunCached and RunBatch:
// replay (tm non-nil) or fresh lowering, optional paranoid cross-check,
// optimization passes, execution, and under paranoid a switch-loop re-run
// of an execution the loop detector cut short.
func (c *Compiler) runOnce(ca *Cache, tm *irTemplate, prog *cc.Program, bugs *BugSet, cfg ExecConfig, paranoid bool) (*RunOutcome, error) {
	cov := c.Coverage
	irp, lerr := lowerFrom(tm, prog, bugs, cov)
	if tm != nil {
		ca.stats.Replays++
	} else {
		ca.stats.FreshLowerings++
	}
	if paranoid && tm != nil {
		if err := tm.crossCheck(prog, bugs, irp, lerr); err != nil {
			return nil, err
		}
	}
	out := &Output{}
	switch e := lerr.(type) {
	case nil:
	case *CrashError:
		out.Crash = e
	default:
		out.Err = lerr
	}
	if lerr == nil {
		// the optimization passes predate fusion: give them plain opcodes
		// (at -O0 no pass reads the stream, so the fused IR runs directly)
		if irp.fused && c.Opt >= 1 {
			unfuseProgram(irp)
		}
		out.Program = irp
		budget := c.WorkBudget
		if budget == 0 {
			budget = 1_000_000
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					switch e := r.(type) {
					case *CrashError:
						out.Crash = e
						out.Program = nil
					case *TimeoutError:
						out.Timeout = e
						out.Program = nil
					default:
						panic(r)
					}
				}
			}()
			ca.passes.begin(cov, bugs, budget)
			c.runPasses(irp, &ca.passes)
		}()
	}
	ro := &RunOutcome{Compile: out}
	if out.Ok() {
		if cfg.Dispatch == DispatchSwitch {
			ca.stats.SwitchRuns++
		} else {
			ca.stats.ThreadedRuns++
		}
		ro.Exec = executeWith(ca.exec, out.Program, bugs, cov, cfg)
		if ca.exec.loop.skipped {
			ca.stats.LoopSkips++
			if paranoid {
				cfg.Dispatch = DispatchSwitch
				if err := sameExec(ro.Exec, Execute(out.Program, bugs, nil, cfg)); err != nil {
					return nil, fmt.Errorf("paranoid: %s: loop detector: %w", c, err)
				}
			}
		}
	}
	return ro, nil
}

// sameExec compares every ExecResult field of a threaded-loop run with
// the switch loop's run of the same program.
func sameExec(got, want *ExecResult) error {
	if *got == *want {
		return nil
	}
	if got.Output != want.Output {
		return fmt.Errorf("output differs from the switch loop's (%d vs %d bytes)", len(got.Output), len(want.Output))
	}
	return fmt.Errorf("exit=%d trap=%q timeout=%v aborted=%v steps=%d, switch loop exit=%d trap=%q timeout=%v aborted=%v steps=%d",
		got.Exit, got.Trap, got.Timeout, got.Aborted, got.Steps, want.Exit, want.Trap, want.Timeout, want.Aborted, want.Steps)
}

// lowerFrom produces the variant's lowered IR: from tm, the template of the
// current fill's shape class, or from a fresh Lower when tm is nil. A
// seeded frontend crash replayed from the trace is returned as a
// *CrashError, exactly as Lower returns it.
func lowerFrom(tm *irTemplate, prog *cc.Program, bugs *BugSet, cov *Coverage) (irp *Program, err error) {
	if tm == nil {
		return Lower(prog, bugs, cov)
	}
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*CrashError); ok {
				irp, err = nil, ce
				return
			}
			panic(r)
		}
	}()
	tm.replay(bugs, cov)
	return tm.instantiate(), nil
}

// ---------------------------------------------------------------- template

// shape classes of a hole's lowering.
const (
	shapeNone int8 = iota // never reached lowering (constant initializers)
	shapeReg              // register-promoted: value register in operand slots
	shapeMem              // memory-resident: OpAddrVar names the symbol
)

// holeSentinel is the placeholder register a traced lowering emits for hole
// hi's value; real registers are positive and NoReg is 0, so sentinels are
// unambiguous until resolveSentinels rewrites them.
func holeSentinel(hi int) Reg { return Reg(-2 - hi) }

// irSite locates one instruction (and optionally an operand slot within it)
// in template coordinates: function index in lowering order, block index
// (equal to Block.ID before any pass runs), instruction index. instr < 0
// addresses the block terminator.
type irSite struct {
	fn, block, instr int
	slot             int8
}

// Operand slots of an irSite.
const (
	slotDst int8 = iota
	slotA
	slotB
	slotTermCond
	slotTermVal
	slotArg0 // slotArg0+i addresses Args[i]
)

// traceEvent is one replayable step of a template lowering: either a
// coverage hit (site, with id -1 when the site is unregistered) or a
// seeded-crash callsite with its trigger.
type traceEvent struct {
	site string
	id   siteID
	hook string
	cond func() bool
}

// lowerTrace accumulates a template's trace while lowerProgram runs.
type lowerTrace struct {
	holeOf   map[*cc.Ident]int
	holes    []*cc.Ident
	events   []traceEvent
	shape    []int8
	hfunc    []int
	regSites [][]irSite
	memSites [][]irSite
	curFunc  int
}

func newLowerTrace(holes []*cc.Ident) *lowerTrace {
	tr := &lowerTrace{
		holeOf:   make(map[*cc.Ident]int, len(holes)),
		holes:    holes,
		shape:    make([]int8, len(holes)),
		hfunc:    make([]int, len(holes)),
		regSites: make([][]irSite, len(holes)),
		memSites: make([][]irSite, len(holes)),
	}
	for i, id := range holes {
		tr.holeOf[id] = i
	}
	return tr
}

// note records the shape and owning function of a hole when its use is
// lowered.
func (tr *lowerTrace) note(hi int, shape int8) {
	tr.shape[hi] = shape
	tr.hfunc[hi] = tr.curFunc
}

// resolveSentinels rewrites the sentinel registers of function fi back to
// the holes' real (template-base) registers, recording each operand slot a
// sentinel reached as a patch site.
func (tr *lowerTrace) resolveSentinels(fi int, f *Func) {
	fix := func(bi, ii int, slot int8, r *Reg) {
		if *r >= NoReg {
			return
		}
		hi := int(-2 - *r)
		tr.regSites[hi] = append(tr.regSites[hi], irSite{fn: fi, block: bi, instr: ii, slot: slot})
		*r = f.VarRegs[tr.holes[hi].Sym]
	}
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			fix(bi, ii, slotDst, &in.Dst)
			fix(bi, ii, slotA, &in.A)
			fix(bi, ii, slotB, &in.B)
			for ai := range in.Args {
				fix(bi, ii, slotArg0+int8(ai), &in.Args[ai])
			}
		}
		fix(bi, -1, slotTermCond, &b.Term.Cond)
		fix(bi, -1, slotTermVal, &b.Term.Val)
	}
}

// irTemplate is the cached lowering of one template program: the base IR,
// the hole patch sites, and the replayable event trace.
type irTemplate struct {
	prog  *Program
	funcs []*Func // in lowering (= source declaration) order
	holes []*cc.Ident
	// base is the holes' symbol bindings at build time; patch sites carry
	// base registers/symbols and are rewritten when a hole's current Sym
	// differs from base.
	base     []*cc.Symbol
	shape    []int8
	hfunc    []int
	volatile []bool
	regSites [][]irSite
	memSites [][]irSite
	events   []traceEvent

	scratch *irClone
}

// buildTemplate lowers prog once with tracing enabled, taking the base from
// the holes' current bindings; it returns nil when the lowering fails
// structurally. The build runs with no active bugs and no recorder: bug
// checks and coverage hits are replayed per variant from the trace instead.
func buildTemplate(prog *cc.Program, holes []*cc.Ident) *irTemplate {
	tr := newLowerTrace(holes)
	irp, err := lowerProgram(prog, EmptyBugSet(), nil, tr)
	if err != nil {
		return nil
	}
	tm := &irTemplate{prog: irp, holes: holes, base: make([]*cc.Symbol, len(holes))}
	for i, id := range holes {
		tm.base[i] = id.Sym
	}
	for _, fd := range prog.Funcs {
		tm.funcs = append(tm.funcs, irp.Funcs[fd.Name])
	}
	tm.shape = tr.shape
	tm.hfunc = tr.hfunc
	tm.regSites = tr.regSites
	tm.memSites = tr.memSites
	tm.events = tr.events
	tm.volatile = addrTakenHoles(prog, tr.holeOf)
	// fuse the template IR in place: only Op fields change, so the patch
	// sites and trace offsets recorded above stay valid, and instantiate's
	// memcpy propagates the fusion to every variant for free.
	// Compare-branch fusion is suppressed in blocks where a hole patch can
	// rewrite the trailing comparison's destination or the terminator's
	// condition independently of each other.
	for fi, f := range tm.funcs {
		fuseFunc(f, tm.cmpBrBlocked(fi, f))
	}
	tm.prog.fused = true
	tm.scratch = tm.newScratch()
	return tm
}

// cmpBrBlocked returns the blocks of function fi (template coordinates)
// where OpCmpBr fusion is unsafe under hole patching: a patch site that
// targets the last instruction's Dst or the terminator's Cond can break
// the Dst == Term.Cond coupling the fusion relies on. (The fused handler
// re-checks the coupling live as well; skipping here keeps the template
// conservative.)
func (tm *irTemplate) cmpBrBlocked(fi int, f *Func) map[*Block]bool {
	var blocked map[*Block]bool
	for hi := range tm.regSites {
		for _, s := range tm.regSites[hi] {
			if s.fn != fi {
				continue
			}
			b := f.Blocks[s.block]
			if (s.instr < 0 && s.slot == slotTermCond) ||
				(s.instr == len(b.Instrs)-1 && s.slot == slotDst) {
				if blocked == nil {
					blocked = make(map[*Block]bool)
				}
				blocked[b] = true
			}
		}
	}
	return blocked
}

// addrTakenHoles marks holes that appear directly under '&': refilling one
// moves the address-taken set, which changes register promotion globally,
// so a template serves only fills that leave them at its base symbols.
func addrTakenHoles(prog *cc.Program, holeOf map[*cc.Ident]int) []bool {
	out := make([]bool, len(holeOf))
	var walkExpr func(cc.Expr)
	walkExpr = func(e cc.Expr) {
		switch e := e.(type) {
		case nil:
		case *cc.UnaryExpr:
			if e.Op == "&" {
				if id, ok := e.X.(*cc.Ident); ok {
					if hi, isHole := holeOf[id]; isHole {
						out[hi] = true
					}
				}
			}
			walkExpr(e.X)
		case *cc.PostfixExpr:
			walkExpr(e.X)
		case *cc.BinaryExpr:
			walkExpr(e.X)
			walkExpr(e.Y)
		case *cc.AssignExpr:
			walkExpr(e.LHS)
			walkExpr(e.RHS)
		case *cc.CondExpr:
			walkExpr(e.Cond)
			walkExpr(e.T)
			walkExpr(e.F)
		case *cc.CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *cc.IndexExpr:
			walkExpr(e.X)
			walkExpr(e.Idx)
		case *cc.MemberExpr:
			walkExpr(e.X)
		case *cc.CastExpr:
			walkExpr(e.X)
		case *cc.SizeofExpr:
			walkExpr(e.X)
		case *cc.CommaExpr:
			for _, x := range e.List {
				walkExpr(x)
			}
		case *cc.InitList:
			for _, x := range e.List {
				walkExpr(x)
			}
		}
	}
	var walkStmt func(cc.Stmt)
	walkStmt = func(st cc.Stmt) {
		switch st := st.(type) {
		case nil:
		case *cc.BlockStmt:
			for _, s := range st.List {
				walkStmt(s)
			}
		case *cc.DeclStmt:
			for _, d := range st.Decls {
				walkExpr(d.Init)
			}
		case *cc.ExprStmt:
			walkExpr(st.X)
		case *cc.IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			walkStmt(st.Else)
		case *cc.WhileStmt:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *cc.DoWhileStmt:
			walkStmt(st.Body)
			walkExpr(st.Cond)
		case *cc.ForStmt:
			walkStmt(st.Init)
			walkExpr(st.Cond)
			walkExpr(st.Post)
			walkStmt(st.Body)
		case *cc.ReturnStmt:
			walkExpr(st.X)
		case *cc.LabeledStmt:
			walkStmt(st.Stmt)
		}
	}
	for _, d := range prog.File.Decls {
		switch d := d.(type) {
		case *cc.VarDecl:
			walkExpr(d.Init)
		case *cc.FuncDecl:
			walkStmt(d.Body)
		}
	}
	return out
}

// patchable reports whether every hole whose symbol moved off the template
// base can be patched in place: not volatile, and the same lowering shape
// as the base symbol (register candidates are register-promoted in the
// hole's function, memory candidates are not). It is the membership test
// of the template's shape class.
func (tm *irTemplate) patchable() bool {
	for i, id := range tm.holes {
		if id.Sym == tm.base[i] {
			continue
		}
		if tm.volatile[i] {
			return false
		}
		switch tm.shape[i] {
		case shapeReg:
			if _, ok := tm.funcs[tm.hfunc[i]].VarRegs[id.Sym]; !ok {
				return false
			}
		case shapeMem:
			if _, ok := tm.funcs[tm.hfunc[i]].VarRegs[id.Sym]; ok {
				return false
			}
		}
		// shapeNone: the hole sits in a constant initializer the VM reads
		// from the (already patched) AST; nothing in the IR to rewrite.
	}
	return true
}

// replay re-issues the template lowering's coverage hits and seeded-crash
// checks against the live recorder and bug set, in original order. A
// triggered crash panics *CrashError exactly where fresh lowering would
// have, leaving the same coverage prefix recorded.
func (tm *irTemplate) replay(bugs *BugSet, cov *Coverage) {
	for i := range tm.events {
		ev := &tm.events[i]
		switch {
		case ev.site == "":
			bugs.MaybeCrash(cov, ev.hook, ev.cond)
		case ev.id >= 0:
			cov.hit(ev.id)
		default: // unregistered: Hit reports the drift
			cov.Hit(ev.site)
		}
	}
}

// irClone is the template's reusable scratch clone: the optimization passes
// mutate blocks and instructions in place, so each variant compiles a
// private copy, rebuilt by memcpy from the template into these buffers.
type irClone struct {
	prog   Program
	funcs  []*Func
	blocks [][]*Block
	args   []Reg
}

func (tm *irTemplate) newScratch() *irClone {
	cl := &irClone{}
	cl.prog = Program{
		Funcs:   make(map[string]*Func, len(tm.funcs)),
		Globals: tm.prog.Globals,
		Statics: tm.prog.Statics,
		Source:  tm.prog.Source,
		fused:   tm.prog.fused,
	}
	totalArgs := 0
	for _, tf := range tm.funcs {
		sf := &Func{Name: tf.Name, Decl: tf.Decl, VarRegs: tf.VarRegs, MemVars: tf.MemVars}
		cl.funcs = append(cl.funcs, sf)
		cl.prog.Funcs[sf.Name] = sf
		bl := make([]*Block, len(tf.Blocks))
		for i := range bl {
			bl[i] = &Block{}
		}
		cl.blocks = append(cl.blocks, bl)
		for _, b := range tf.Blocks {
			for i := range b.Instrs {
				totalArgs += len(b.Instrs[i].Args)
			}
		}
	}
	cl.args = make([]Reg, totalArgs)
	return cl
}

// instantiate rebuilds the scratch clone from the template and rewrites the
// patch sites of every hole whose symbol moved. Callers must have checked
// patchable first. The returned program is valid until the next
// instantiate on the same template.
func (tm *irTemplate) instantiate() *Program {
	cl := tm.scratch
	// the memcpy below restores the template's (fused) opcodes even when
	// the previous variant unfused the scratch for the optimization passes
	cl.prog.fused = tm.prog.fused
	argOff := 0
	for fi, tf := range tm.funcs {
		sf := cl.funcs[fi]
		bl := cl.blocks[fi]
		sf.NumRegs = tf.NumRegs
		sf.Blocks = append(sf.Blocks[:0], bl...)
		sf.Entry = bl[tf.Entry.ID]
		for bi, tb := range tf.Blocks {
			cb := bl[bi]
			cb.ID = tb.ID
			cb.Label = tb.Label
			cb.Instrs = append(cb.Instrs[:0], tb.Instrs...)
			for ii := range cb.Instrs {
				in := &cb.Instrs[ii]
				if n := len(in.Args); n > 0 {
					args := cl.args[argOff : argOff+n : argOff+n]
					copy(args, in.Args)
					in.Args = args
					argOff += n
				}
			}
			t := tb.Term
			if t.To != nil {
				t.To = bl[t.To.ID]
			}
			if t.Else != nil {
				t.Else = bl[t.Else.ID]
			}
			cb.Term = t
		}
	}
	for i, id := range tm.holes {
		cur := id.Sym
		if cur == tm.base[i] {
			continue
		}
		for _, s := range tm.regSites[i] {
			nr := tm.funcs[s.fn].VarRegs[cur]
			b := cl.blocks[s.fn][s.block]
			if s.instr < 0 {
				switch s.slot {
				case slotTermCond:
					b.Term.Cond = nr
				case slotTermVal:
					b.Term.Val = nr
				}
				continue
			}
			in := &b.Instrs[s.instr]
			switch {
			case s.slot == slotDst:
				in.Dst = nr
			case s.slot == slotA:
				in.A = nr
			case s.slot == slotB:
				in.B = nr
			case s.slot >= slotArg0:
				in.Args[s.slot-slotArg0] = nr
			}
		}
		for _, s := range tm.memSites[i] {
			cl.blocks[s.fn][s.block].Instrs[s.instr].Sym = cur
		}
	}
	return &cl.prog
}

// crossCheck is the -paranoid assertion for the cached backend: the
// template-derived lowering (or its replayed crash) must match a fresh
// Lower of the same — already patched — program, instruction for
// instruction.
func (tm *irTemplate) crossCheck(prog *cc.Program, bugs *BugSet, got *Program, gotErr error) error {
	fresh, freshErr := Lower(prog, bugs, nil)
	if (gotErr == nil) != (freshErr == nil) {
		return fmt.Errorf("minicc: paranoid: template lowering error %v, fresh lowering error %v", gotErr, freshErr)
	}
	if gotErr != nil {
		gc, gok := gotErr.(*CrashError)
		fc, fok := freshErr.(*CrashError)
		if !gok || !fok || gc.Signature != fc.Signature || gc.BugID != fc.BugID {
			return fmt.Errorf("minicc: paranoid: template crash %v, fresh crash %v", gotErr, freshErr)
		}
		return nil
	}
	if g, f := irString(got), irString(fresh); g != f {
		return fmt.Errorf("minicc: paranoid: patched IR diverges from fresh lowering\n--- patched ---\n%s--- fresh ---\n%s", g, f)
	}
	return nil
}

// irString renders a lowered program deterministically for comparison.
func irString(p *Program) string {
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := ""
	for _, name := range names {
		out += p.Funcs[name].String()
	}
	return out
}
