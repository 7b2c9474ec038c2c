package minicc

import (
	"fmt"

	"spe/internal/cc"
)

// passCtx carries instrumentation and the seeded-bug set through the
// optimization pipeline, the compile-time work budget used to detect
// performance bugs, and the passes' reusable tables.
type passCtx struct {
	cov    *Coverage
	bugs   *BugSet
	work   int64
	budget int64
	passScratch
}

// begin readies a reused context for one compilation; the scratch tables
// carry over.
func (p *passCtx) begin(cov *Coverage, bugs *BugSet, budget int64) {
	p.cov, p.bugs, p.work, p.budget = cov, bugs, 0, budget
}

// passScratch is the passes' working storage: tables indexed by register,
// block ID or symbol ID (see the invariants in dom.go), kept across passes
// and compilations so that a warm pipeline barely allocates. A Cache owns
// one; the zero value is ready to use.
type passScratch struct {
	cfg cfgInfo
	// ver counts redefinitions per register and is never reset: cse,
	// copyProp and aliasForward record a register's count and compare it
	// with the current one later in the same pass over the same function,
	// where equality means "not redefined since".
	ver       []uint32
	consts    denseMap[Reg, Const]     // constFold: per-block constants
	lat       latticeScratch           // constProp
	copies    denseMap[Reg, versioned] // copyProp: destination -> source
	avail     map[cseKey]versioned     // cse: per-block available expressions
	used      []bool                   // dce: registers read anywhere
	addrSym   denseMap[Reg, int]       // dce, aliasForward: register -> symbol ID of the address it holds
	lastStore denseMap[int, int]       // dce: symbol ID -> index of its pending store
	dead      denseSet[int]            // dce: instruction indices of dead stores
	stored    denseMap[int, versioned] // aliasForward: symbol ID -> last stored value
	defCount  []int32                  // licm: definitions per register
	definedIn denseSet[Reg]            // licm: registers defined in the loop
	latches   []*Block                 // licm
	threaded  denseSet[int]            // simplifyCFG: block IDs on a jump-threading chain
	merged    denseSet[int]            // simplifyCFG: block IDs merged into a predecessor
	blocks    []*Block                 // simplifyCFG: f.Blocks before merging
	names     []string                 // runPasses: function order
}

// versioned is a register with its redefinition count when recorded; it
// still holds the recorded value while the counts agree.
type versioned struct {
	reg Reg
	ver uint32
}

// live reports whether v's register has not been redefined since v was
// recorded.
func (s *passScratch) live(v versioned) bool { return s.ver[v.reg] == v.ver }

// at records r with its current redefinition count.
func (s *passScratch) at(r Reg) versioned { return versioned{r, s.ver[r]} }

// denseSet is a set of small non-negative keys (register numbers, block,
// symbol or instruction indices) backed by a reused slice. A key is present
// when its stamp equals the current generation, so emptying the set is one
// increment. Call reset or clear before first use: in the zero value every
// key reads as present.
type denseSet[K ~int] struct {
	stamp []uint32
	gen   uint32
}

// fit makes room for keys below n, keeping the present ones.
func (s *denseSet[K]) fit(n int) {
	if n > len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
}

// clear empties the set.
func (s *denseSet[K]) clear() {
	s.gen++
	if s.gen == 0 { // wrapped: a stale stamp could read as present
		clear(s.stamp)
		s.gen = 1
	}
}

// reset empties the set and makes room for keys below n.
func (s *denseSet[K]) reset(n int) {
	s.fit(n)
	s.clear()
}

func (s *denseSet[K]) has(k K) bool { return s.stamp[k] == s.gen }
func (s *denseSet[K]) add(k K)      { s.stamp[k] = s.gen }
func (s *denseSet[K]) del(k K)      { s.stamp[k] = 0 }

// denseMap is a denseSet with a value per present key.
type denseMap[K ~int, V any] struct {
	denseSet[K]
	val []V
}

// fit makes room for keys below n, keeping the present entries.
func (m *denseMap[K, V]) fit(n int) {
	m.denseSet.fit(n)
	if n > len(m.val) {
		m.val = append(m.val, make([]V, n-len(m.val))...)
	}
}

// reset empties the map and makes room for keys below n.
func (m *denseMap[K, V]) reset(n int) {
	m.fit(n)
	m.clear()
}

func (m *denseMap[K, V]) get(k K) (V, bool) {
	if m.has(k) {
		return m.val[k], true
	}
	var zero V
	return zero, false
}

func (m *denseMap[K, V]) set(k K, v V) {
	m.val[k] = v
	m.add(k)
}

// TimeoutError reports compile-time budget exhaustion (the observable
// symptom of a seeded performance bug).
type TimeoutError struct{ Pass string }

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("minicc: compilation timeout in %s pass", e.Pass)
}

func (p *passCtx) tick(n int64, pass string) {
	p.work += n
	if p.budget > 0 && p.work > p.budget {
		panic(&TimeoutError{Pass: pass})
	}
}

// ---------------------------------------------------------------- helpers

// evalConstBin folds an integer binary operation at compile time; ok is
// false for operations the folder refuses (division by zero, floats,
// strings).
func evalConstBin(op string, a, b Const, t cc.Type) (Const, bool) {
	if a.IsStr || b.IsStr || a.IsFloat || b.IsFloat {
		return Const{}, false
	}
	x, y := a.I, b.I
	var r int64
	switch op {
	case "+":
		r = x + y
	case "-":
		r = x - y
	case "*":
		r = x * y
	case "/":
		if y == 0 {
			return Const{}, false
		}
		r = x / y
	case "%":
		if y == 0 {
			return Const{}, false
		}
		r = x % y
	case "&":
		r = x & y
	case "|":
		r = x | y
	case "^":
		r = x ^ y
	case "<<":
		if y < 0 || y > 63 {
			return Const{}, false
		}
		r = x << uint(y)
	case ">>":
		if y < 0 || y > 63 {
			return Const{}, false
		}
		r = x >> uint(y)
	case "==":
		r = boolToI(x == y)
	case "!=":
		r = boolToI(x != y)
	case "<":
		r = boolToI(x < y)
	case ">":
		r = boolToI(x > y)
	case "<=":
		r = boolToI(x <= y)
	case ">=":
		r = boolToI(x >= y)
	default:
		return Const{}, false
	}
	return Const{I: truncConst(r, t)}, true
}

func boolToI(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func truncConst(v int64, t cc.Type) int64 {
	bt, ok := t.(*cc.BasicType)
	if !ok {
		return v
	}
	switch bt.Kind {
	case cc.Char:
		return int64(int8(v))
	case cc.UChar:
		return int64(uint8(v))
	case cc.Short:
		return int64(int16(v))
	case cc.UShort:
		return int64(uint16(v))
	case cc.Int:
		return int64(int32(v))
	case cc.UInt:
		return int64(uint32(v))
	default:
		return v
	}
}

// convConst converts a non-string constant to type t.
func convConst(a Const, t cc.Type) Const {
	if bt, ok := t.(*cc.BasicType); ok && bt.IsFloat() {
		if a.IsFloat {
			return a
		}
		return Const{IsFloat: true, F: float64(a.I)}
	}
	if a.IsFloat {
		return Const{I: truncConst(int64(a.F), t)}
	}
	return Const{I: truncConst(a.I, t)}
}

func evalConstUn(op string, a Const, t cc.Type) (Const, bool) {
	if a.IsStr || a.IsFloat {
		return Const{}, false
	}
	switch op {
	case "-":
		return Const{I: truncConst(-a.I, t)}, true
	case "~":
		return Const{I: truncConst(^a.I, t)}, true
	case "!":
		return Const{I: boolToI(a.I == 0)}, true
	default:
		return Const{}, false
	}
}

// ---------------------------------------------------------------- constfold

// constFold performs local constant folding and constant-branch folding.
func constFold(f *Func, p *passCtx) {
	p.cov.Hit("constfold.entry")
	perfBug := p.bugs.Active("perf-exponential-fold")
	subSelfBug, _ := p.bugs.Lookup("constfold-sub-self")
	negZeroBug := p.bugs.Active("constprop-negzero")
	consts := &p.consts
	for _, b := range f.Blocks {
		consts.reset(f.NumRegs + 1)
		foldsHere := int64(0)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpConst:
				if !in.Val.IsStr {
					consts.set(in.Dst, in.Val)
				}
			case OpCopy:
				if c, ok := consts.get(in.A); ok {
					consts.set(in.Dst, c)
				} else {
					consts.del(in.Dst)
				}
			case OpBin:
				a, aok := consts.get(in.A)
				c, cok := consts.get(in.B)
				if aok && cok {
					p.cov.hit(siteConstFoldBin)
					p.bugs.MaybeCrash(p.cov, "constfold-div-overflow", func() bool {
						return (in.BinOp == "/" || in.BinOp == "%") && a.I == -2147483648 && c.I == -1
					})
					if subSelfBug != nil && subSelfBug.Kind == BugWrongCode &&
						in.BinOp == "-" && a.I == c.I && a.I != 0 && !a.IsFloat && !c.IsFloat {
						// seeded wrong-code: c - c folded to c instead of 0
						*in = Instr{Op: OpConst, Dst: in.Dst, Val: a, Type: in.Type, Pos: in.Pos}
						consts.set(in.Dst, a)
						continue
					}
					if r, ok := evalConstBin(in.BinOp, a, c, in.Type); ok {
						p.cov.hitOp(familyConstFoldBin, in.BinOp)
						switch {
						case r.I == 0:
							p.cov.hit(siteConstFoldZero)
						case r.I < 0:
							p.cov.hit(siteConstFoldNegative)
						default:
							p.cov.hit(siteConstFoldNonzero)
						}
						*in = Instr{Op: OpConst, Dst: in.Dst, Val: r, Type: in.Type, Pos: in.Pos}
						consts.set(in.Dst, r)
						foldsHere++
						if perfBug {
							// seeded compile-time blowup: superlinear work
							// per fold within one block
							p.tick(foldsHere*foldsHere*512, "constfold")
						}
						p.tick(1, "constfold")
						continue
					}
				}
				consts.del(in.Dst)
			case OpUn:
				if a, ok := consts.get(in.A); ok {
					p.cov.hit(siteConstFoldUn)
					if negZeroBug && in.UnOp == "-" && a.I < 0 {
						// seeded wrong-code: negation of a negative constant
						// returns the operand unchanged
						*in = Instr{Op: OpConst, Dst: in.Dst, Val: a, Type: in.Type, Pos: in.Pos}
						consts.set(in.Dst, a)
						continue
					}
					if r, ok := evalConstUn(in.UnOp, a, in.Type); ok {
						*in = Instr{Op: OpConst, Dst: in.Dst, Val: r, Type: in.Type, Pos: in.Pos}
						consts.set(in.Dst, r)
						continue
					}
				}
				consts.del(in.Dst)
			case OpConv:
				if a, ok := consts.get(in.A); ok && !a.IsStr {
					p.cov.hit(siteConstFoldConv)
					r := convConst(a, in.Type)
					*in = Instr{Op: OpConst, Dst: in.Dst, Val: r, Type: in.Type, Pos: in.Pos}
					consts.set(in.Dst, r)
					continue
				}
				consts.del(in.Dst)
			default:
				if in.Dst != NoReg {
					consts.del(in.Dst)
				}
			}
		}
		// constant branch folding
		if b.Term.Kind == TermBr {
			if c, ok := consts.get(b.Term.Cond); ok && !c.IsFloat && !c.IsStr {
				p.cov.hit(siteConstFoldBranch)
				dead := b.Term.Else
				target := b.Term.To
				if c.I == 0 {
					dead = b.Term.To
					target = b.Term.Else
					p.cov.hit(siteConstFoldDropped)
				} else {
					p.cov.hit(siteConstFoldTaken)
				}
				p.bugs.MaybeCrash(p.cov, "constprop-branch-label", func() bool {
					return len(dead.Label) > 6 && dead.Label[:6] == "label."
				})
				b.Term = Term{Kind: TermJmp, To: target, Pos: b.Term.Pos}
			}
		}
	}
}

// ---------------------------------------------------------------- constprop

// The propagation lattice is stored densely: one cell per register per
// block, indexed by Block.ID (see the invariants in dom.go). The dense form replicates the semantics of the
// previous map-of-maps representation exactly, including the distinction
// between a register that is absent from the map and one that is present
// with an undefined value (an OpCopy of an absent source inserts a
// present zero-lattice, and map equality compared key sets): that is what
// latPresent encodes. The rewrite keeps fixpoint iteration counts, tick
// charges, and coverage hits bit-identical while eliminating the map
// allocation and hashing that dominated compile-path CPU.
const (
	latAbsent  int8 = iota // no entry in the equivalent sparse map
	latConst               // proven constant (val returns it)
	latTop                 // not a constant
	latPresent             // present in the sparse map, value undefined
)

// lattice is one register's cell. A proven constant is never a string
// (string constants are latTop), so a cell keeps only the numeric half of
// a Const: the fixpoint copies and compares width cells per block visit.
type lattice struct {
	state   int8
	isFloat bool
	i       int64
	f       float64
}

func constCell(c Const) lattice { return lattice{state: latConst, isFloat: c.IsFloat, i: c.I, f: c.F} }

// val returns a constant cell's value.
func (l lattice) val() Const { return Const{IsFloat: l.isFloat, I: l.i, F: l.f} }

// latticeScratch is constProp's storage, reused across calls: one arena
// backing every per-block vector, the per-block row tables (indexed by
// Block.ID), and the rewrite's per-register constants.
type latticeScratch struct {
	arena    []lattice
	in, out  [][]lattice
	consts   []Const
	hasConst []bool
}

// meetLat folds one predecessor's present cell into an accumulator cell
// (per-register; callers skip latAbsent predecessor cells, matching the
// sparse iteration over present keys only).
func meetLat(a, b lattice) lattice {
	switch {
	case a.state == latAbsent || a.state == latPresent:
		return b
	case b.state == latPresent:
		return a
	case a.state == latConst && a == b:
		return a
	default:
		return lattice{state: latTop}
	}
}

// constProp is a global (whole-CFG) conditional constant propagation over
// registers, followed by rewriting. It feeds constFold, which performs the
// actual instruction replacement.
func constProp(f *Func, p *passCtx) {
	p.cov.Hit("constprop.entry")
	cfg := &p.cfg
	cfg.analyze(f)
	blocks := cfg.order
	width := f.NumRegs + 1
	ls := &p.lat
	// one flat arena backs every per-block vector plus the two scratch rows
	ls.arena = grow(ls.arena, (2*len(blocks)+2)*width)
	clear(ls.arena)
	arena := ls.arena
	next := func() []lattice {
		row := arena[:width:width]
		arena = arena[width:]
		return row
	}
	ls.in = grow(ls.in, cfg.width)
	ls.out = grow(ls.out, cfg.width)
	in, out := ls.in, ls.out
	for _, b := range blocks {
		in[b.ID] = next()
		out[b.ID] = next()
	}
	newIn, newOut := next(), next()
	transfer := func(b *Block, st []lattice) {
		for i := range b.Instrs {
			inr := &b.Instrs[i]
			switch inr.Op {
			case OpConst:
				if inr.Val.IsStr {
					st[inr.Dst] = lattice{state: latTop}
				} else {
					st[inr.Dst] = constCell(inr.Val)
				}
			case OpCopy:
				// copying an absent source still defines the destination
				// (sparse map assignment inserted a zero lattice)
				if v := st[inr.A]; v.state == latAbsent {
					st[inr.Dst] = lattice{state: latPresent}
				} else {
					st[inr.Dst] = v
				}
			case OpBin:
				a, c := st[inr.A], st[inr.B]
				if a.state == latConst && c.state == latConst {
					if r, ok := evalConstBin(inr.BinOp, a.val(), c.val(), inr.Type); ok {
						st[inr.Dst] = constCell(r)
						continue
					}
				}
				st[inr.Dst] = lattice{state: latTop}
			case OpUn:
				if a := st[inr.A]; a.state == latConst {
					if r, ok := evalConstUn(inr.UnOp, a.val(), inr.Type); ok {
						st[inr.Dst] = constCell(r)
						continue
					}
				}
				st[inr.Dst] = lattice{state: latTop}
			case OpConv:
				if a := st[inr.A]; a.state == latConst {
					st[inr.Dst] = constCell(convConst(a.val(), inr.Type))
					continue
				}
				st[inr.Dst] = lattice{state: latTop}
			default:
				if inr.Dst != NoReg {
					st[inr.Dst] = lattice{state: latTop}
				}
			}
		}
	}
	// iterate to fixpoint
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			p.tick(int64(len(b.Instrs))+1, "constprop")
			for i := range newIn {
				newIn[i] = lattice{}
			}
			for _, pred := range cfg.preds(b) {
				p.cov.hit(siteConstPropMeet)
				for r, v := range out[pred.ID] {
					// registers missing from one predecessor are undefined
					// there; meet(undef, x) = x, so they contribute nothing
					if v.state == latAbsent {
						continue
					}
					newIn[r] = meetLat(newIn[r], v)
				}
			}
			copy(newOut, newIn)
			transfer(b, newOut)
			if !latEqual(newIn, in[b.ID]) || !latEqual(newOut, out[b.ID]) {
				copy(in[b.ID], newIn)
				copy(out[b.ID], newOut)
				changed = true
			}
		}
	}
	// rewrite: materialize constants proven at block entry
	// every block sets all width hasConst entries before reading any, and
	// consts[r] is read only where hasConst[r] holds
	ls.consts = grow(ls.consts, width)
	ls.hasConst = grow(ls.hasConst, width)
	consts, hasConst := ls.consts, ls.hasConst
	for _, b := range blocks {
		st := in[b.ID]
		for r, v := range st {
			hasConst[r] = v.state == latConst
			if hasConst[r] {
				consts[r] = v.val()
			}
		}
		for i := range b.Instrs {
			inr := &b.Instrs[i]
			if inr.Op == OpCopy {
				if hasConst[inr.A] {
					p.cov.hit(siteConstPropReplace)
					c := consts[inr.A]
					*inr = Instr{Op: OpConst, Dst: inr.Dst, Val: c, Type: inr.Type, Pos: inr.Pos}
					consts[inr.Dst] = c
					hasConst[inr.Dst] = true
					continue
				}
			}
			// recompute locally as constFold does
			switch inr.Op {
			case OpConst:
				if !inr.Val.IsStr {
					consts[inr.Dst] = inr.Val
					hasConst[inr.Dst] = true
				} else {
					hasConst[inr.Dst] = false
				}
			case OpBin:
				if hasConst[inr.A] && hasConst[inr.B] {
					if r, ok := evalConstBin(inr.BinOp, consts[inr.A], consts[inr.B], inr.Type); ok {
						p.cov.hit(siteConstPropReplace)
						p.cov.hitOp(familyConstPropReplace, inr.BinOp)
						*inr = Instr{Op: OpConst, Dst: inr.Dst, Val: r, Type: inr.Type, Pos: inr.Pos}
						consts[inr.Dst] = r
						hasConst[inr.Dst] = true
						continue
					}
				}
				hasConst[inr.Dst] = false
			default:
				if inr.Dst != NoReg {
					hasConst[inr.Dst] = false
				}
			}
		}
		if b.Term.Kind == TermBr {
			if v := st[b.Term.Cond]; v.state == latConst {
				// only fold when the condition register is not redefined in
				// this block
				redefined := false
				for i := range b.Instrs {
					if b.Instrs[i].Dst == b.Term.Cond {
						redefined = true
						break
					}
				}
				if !redefined && !v.isFloat {
					p.cov.hit(siteConstPropBranch)
					target := b.Term.To
					if v.i == 0 {
						target = b.Term.Else
					}
					b.Term = Term{Kind: TermJmp, To: target, Pos: b.Term.Pos}
				}
			}
		}
	}
}

func latEqual(a, b []lattice) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- copyprop

// copyProp performs local copy propagation. The seeded bug
// "copyprop-through-branch" carries the copy table across block boundaries
// without invalidation, which is wrong when a source register is redefined
// on another path.
func copyProp(f *Func, p *passCtx) {
	p.cov.Hit("copyprop.entry")
	buggy := p.bugs.Active("copyprop-through-branch")
	width := f.NumRegs + 1
	p.ver = grow(p.ver, width)
	// copies maps a destination to its source; an entry whose source has
	// been redefined since (a stale version) is absent, so invalidating a
	// register drops every copy of it in one increment
	copies := &p.copies
	copies.reset(width)
	source := func(r Reg) (Reg, bool) {
		if c, ok := copies.get(r); ok && p.live(c) {
			return c.reg, true
		}
		return NoReg, false
	}
	// rewrite uses through the copy table
	rep := func(r Reg) Reg {
		if s, ok := source(r); ok {
			p.cov.hit(siteCopyPropReplace)
			return s
		}
		return r
	}
	for _, b := range f.Blocks {
		if !buggy {
			copies.clear()
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpBin, OpAddrIdx:
				in.A = rep(in.A)
				in.B = rep(in.B)
			case OpUn, OpConv, OpCopy, OpLoad:
				in.A = rep(in.A)
			case OpStore:
				in.A = rep(in.A)
				in.B = rep(in.B)
			case OpCall:
				for j := range in.Args {
					in.Args[j] = rep(in.Args[j])
				}
			}
			if in.Dst != NoReg {
				copies.del(in.Dst)
				p.ver[in.Dst]++
			}
			if in.Op == OpCopy && in.Dst != in.A {
				copies.set(in.Dst, p.at(in.A))
			}
		}
		if b.Term.Kind == TermBr {
			if s, ok := source(b.Term.Cond); ok {
				b.Term.Cond = s
			}
		}
		if b.Term.Kind == TermRet && b.Term.HasVal {
			if s, ok := source(b.Term.Val); ok {
				b.Term.Val = s
			}
		}
	}
}

// ---------------------------------------------------------------- cse

// cseKey identifies a binary expression by operator, operand registers at
// their current versions, and result type.
type cseKey struct {
	op, typ string
	a, c    versioned
}

// cse performs local common-subexpression elimination over pure
// instructions, with register-version tracking for correctness under
// redefinition.
func cse(f *Func, p *passCtx) {
	p.cov.Hit("cse.entry")
	commuteBug := p.bugs.Active("cse-commutes-sub")
	p.ver = grow(p.ver, f.NumRegs+1)
	if p.avail == nil {
		p.avail = make(map[cseKey]versioned)
	}
	avail := p.avail
	for _, b := range f.Blocks {
		clear(avail)
		eligible := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpBin {
				eligible++
				p.bugs.MaybeCrash(p.cov, "cse-crash-deep-expr", func() bool {
					return eligible > 20
				})
				a, c := in.A, in.B
				if commuteBug && in.BinOp == "-" && c < a {
					// seeded wrong-code: subtraction keyed commutatively
					p.cov.hit(siteCSECommute)
					a, c = c, a
				}
				if isCommutative(in.BinOp) && c < a {
					p.cov.hit(siteCSECommute)
					a, c = c, a
				}
				key := cseKey{op: in.BinOp, typ: typeName(in.Type), a: p.at(a), c: p.at(c)}
				if prev, ok := avail[key]; ok && p.live(prev) {
					p.cov.hit(siteCSEHit)
					p.cov.hitOp(familyCSEHit, in.BinOp)
					*in = Instr{Op: OpCopy, Dst: in.Dst, A: prev.reg, Pos: in.Pos}
					p.ver[in.Dst]++
				} else {
					p.ver[in.Dst]++
					avail[key] = p.at(in.Dst)
				}
			} else if in.Dst != NoReg {
				p.ver[in.Dst]++
			}
		}
		p.tick(int64(len(b.Instrs)), "cse")
	}
}

func isCommutative(op string) bool {
	switch op {
	case "+", "*", "&", "|", "^", "==", "!=":
		return true
	}
	return false
}
