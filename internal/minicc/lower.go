package minicc

import (
	"fmt"

	"spe/internal/cc"
)

// CrashError is a compiler crash (an internal assertion failure). The
// harness matches the paper's Table 3 by collecting crash signatures.
type CrashError struct {
	Signature string // e.g. "internal compiler error: in fold_ternary, at constfold.c:812"
	Component string
	BugID     string
}

func (e *CrashError) Error() string { return e.Signature }

// UnsupportedError reports a construct outside the compilable subset.
type UnsupportedError struct {
	Pos cc.Pos
	Msg string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("%s: minicc: unsupported: %s", e.Pos, e.Msg)
}

type lowerer struct {
	f        *Func
	cur      *Block
	cov      *Coverage
	bugs     *BugSet
	labels   map[string]*Block
	breaks   []*Block
	conts    []*Block
	addrOf   map[*cc.Symbol]bool
	retType  cc.Type
	structsT map[string]*cc.StructType
	irp      *Program
	// tr, when non-nil, records the template trace of this lowering:
	// coverage hits and seeded-crash callsites in emission order, plus the
	// IR sites that depend on hole identifiers (see template.go). Hole uses
	// of register-promoted variables are lowered to per-hole sentinel
	// registers that resolveSentinels rewrites to the real registers after
	// the function is complete, which is how the trace learns exactly which
	// operand slots a hole's value flows into.
	tr *lowerTrace
}

// Lower translates an analyzed program to IR. It can crash with a
// *CrashError when a seeded frontend bug is triggered.
func Lower(prog *cc.Program, bugs *BugSet, cov *Coverage) (*Program, error) {
	return lowerProgram(prog, bugs, cov, nil)
}

func lowerProgram(prog *cc.Program, bugs *BugSet, cov *Coverage, tr *lowerTrace) (irp *Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*CrashError); ok {
				err = ce
				return
			}
			if ue, ok := r.(*UnsupportedError); ok {
				err = ue
				return
			}
			panic(r)
		}
	}()
	if bugs == nil {
		bugs = EmptyBugSet()
	}
	lw := &lowerer{cov: cov, bugs: bugs, tr: tr}
	lw.hit("lower.entry")
	irp = &Program{Funcs: make(map[string]*Func), Source: prog}
	for _, d := range prog.File.Decls {
		if vd, ok := d.(*cc.VarDecl); ok {
			irp.Globals = append(irp.Globals, vd)
		}
	}
	for fi, fd := range prog.Funcs {
		lw := &lowerer{
			cov:      cov,
			bugs:     bugs,
			labels:   make(map[string]*Block),
			addrOf:   make(map[*cc.Symbol]bool),
			retType:  fd.Ret,
			structsT: prog.File.Structs,
			irp:      irp,
			tr:       tr,
		}
		if tr != nil {
			tr.curFunc = fi
		}
		f := lw.lowerFunc(fd)
		if tr != nil {
			tr.resolveSentinels(fi, f)
		}
		irp.Funcs[fd.Name] = f
	}
	return irp, nil
}

// hit records a coverage hit, mirrored into the template trace.
func (l *lowerer) hit(site string) {
	l.cov.Hit(site)
	if l.tr != nil {
		id, ok := siteIdx[site]
		if !ok {
			id = -1
		}
		l.tr.events = append(l.tr.events, traceEvent{site: site, id: id})
	}
}

// crash guards a seeded-crash callsite whose trigger reads only the AST.
// When tracing, the trigger closure itself is recorded: hole rebinding
// patches the AST in place, so replaying the closure evaluates the trigger
// against each variant's symbols (equal-operand shapes, ternary depths, and
// operand types are exactly the conditions a refill can flip).
func (l *lowerer) crash(hook string, trigger func() bool) {
	l.bugs.MaybeCrash(l.cov, hook, trigger)
	if l.tr != nil {
		l.tr.events = append(l.tr.events, traceEvent{hook: hook, cond: trigger})
	}
}

// crashSticky guards a callsite whose trigger reads transient lowering
// state (the label table and loop context). That state is a function of the
// skeleton's fixed syntax, never of the hole filling, so tracing evaluates
// the trigger once and replays the boolean.
func (l *lowerer) crashSticky(hook string, trigger func() bool) {
	l.bugs.MaybeCrash(l.cov, hook, trigger)
	if l.tr != nil {
		v := trigger()
		l.tr.events = append(l.tr.events, traceEvent{hook: hook, cond: func() bool { return v }})
	}
}

func (l *lowerer) unsupported(pos cc.Pos, format string, args ...interface{}) {
	panic(&UnsupportedError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *lowerer) lowerFunc(fd *cc.FuncDecl) *Func {
	l.hit("lower.func")
	f := &Func{
		Name:    fd.Name,
		Decl:    fd,
		VarRegs: make(map[*cc.Symbol]Reg),
		MemVars: make(map[*cc.Symbol]bool),
	}
	l.f = f
	collectAddrTaken(fd.Body, l.addrOf)
	f.Entry = f.NewBlock("entry")
	l.cur = f.Entry

	for _, p := range fd.Params {
		if p.Sym == nil {
			continue
		}
		l.bindVar(p.Sym)
	}
	l.stmt(fd.Body)
	// implicit return at the end of the function
	if l.cur != nil {
		l.cur.Term = Term{Kind: TermRet, HasVal: false, Pos: fd.Pos}
	}
	// any block left unterminated (e.g. label at end) falls into a return
	for _, b := range f.Blocks {
		if b.Term.To == nil && b.Term.Kind == TermJmp {
			b.Term = Term{Kind: TermRet}
		}
	}
	return f
}

// bindVar decides the storage class of a variable: register-promoted scalar
// or memory object.
func (l *lowerer) bindVar(sym *cc.Symbol) {
	if _, done := l.f.VarRegs[sym]; done {
		return
	}
	if l.f.MemVars[sym] {
		return
	}
	if sym.Scope.Parent == nil || l.addrOf[sym] || isAggregateType(sym.Type) || sym.Storage == cc.StorageStatic {
		l.f.MemVars[sym] = true
		return
	}
	l.f.VarRegs[sym] = l.f.NewReg()
}

func isAggregateType(t cc.Type) bool {
	switch t.(type) {
	case *cc.ArrayType, *cc.StructType:
		return true
	}
	return false
}

func collectAddrTaken(st cc.Stmt, out map[*cc.Symbol]bool) {
	var walkExpr func(cc.Expr)
	walkExpr = func(e cc.Expr) {
		switch e := e.(type) {
		case nil:
		case *cc.UnaryExpr:
			if e.Op == "&" {
				if id, ok := e.X.(*cc.Ident); ok && id.Sym != nil {
					out[id.Sym] = true
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
	var walk func(cc.Stmt)
	walk = func(st cc.Stmt) {
		switch st := st.(type) {
		case nil:
		case *cc.BlockStmt:
			for _, s := range st.List {
				walk(s)
			}
		case *cc.DeclStmt:
			for _, d := range st.Decls {
				walkExpr(d.Init)
			}
		case *cc.ExprStmt:
			walkExpr(st.X)
		case *cc.IfStmt:
			walkExpr(st.Cond)
			walk(st.Then)
			walk(st.Else)
		case *cc.WhileStmt:
			walkExpr(st.Cond)
			walk(st.Body)
		case *cc.DoWhileStmt:
			walk(st.Body)
			walkExpr(st.Cond)
		case *cc.ForStmt:
			walk(st.Init)
			walkExpr(st.Cond)
			walkExpr(st.Post)
			walk(st.Body)
		case *cc.ReturnStmt:
			walkExpr(st.X)
		case *cc.LabeledStmt:
			walk(st.Stmt)
		}
	}
	walk(st)
}

// emit appends an instruction to the current block.
func (l *lowerer) emit(in Instr) Reg {
	if l.cur == nil {
		// unreachable code after a jump: lower into a dead block
		l.cur = l.f.NewBlock("dead")
	}
	l.cur.Instrs = append(l.cur.Instrs, in)
	return in.Dst
}

func (l *lowerer) constInt(v int64, t cc.Type, pos cc.Pos) Reg {
	r := l.f.NewReg()
	l.emit(Instr{Op: OpConst, Dst: r, Val: Const{I: v}, Type: t, Pos: pos})
	return r
}

// terminate seals the current block and switches to next (which may be nil
// to mark unreachable).
func (l *lowerer) terminate(t Term, next *Block) {
	if l.cur != nil {
		l.cur.Term = t
	}
	l.cur = next
}

func (l *lowerer) labelBlock(name string) *Block {
	b, ok := l.labels[name]
	if !ok {
		b = l.f.NewBlock("label." + name)
		l.labels[name] = b
	}
	return b
}

// ------------------------------------------------------------- statements

func (l *lowerer) stmt(st cc.Stmt) {
	switch st := st.(type) {
	case *cc.BlockStmt:
		for _, s := range st.List {
			l.stmt(s)
		}
	case *cc.DeclStmt:
		for _, d := range st.Decls {
			l.declStmt(d)
		}
	case *cc.ExprStmt:
		l.hit("lower.exprstmt")
		l.exprDiscard(st.X)
	case *cc.EmptyStmt:
	case *cc.IfStmt:
		l.hit("lower.if")
		cond := l.expr(st.Cond)
		thenB := l.f.NewBlock("if.then")
		joinB := l.f.NewBlock("if.join")
		elseB := joinB
		if st.Else != nil {
			elseB = l.f.NewBlock("if.else")
		}
		l.terminate(Term{Kind: TermBr, Cond: cond, To: thenB, Else: elseB, Pos: st.Pos}, thenB)
		l.stmt(st.Then)
		l.terminate(Term{Kind: TermJmp, To: joinB}, elseB)
		if st.Else != nil {
			l.stmt(st.Else)
			l.terminate(Term{Kind: TermJmp, To: joinB}, joinB)
		} else {
			l.cur = joinB
		}
	case *cc.WhileStmt:
		l.hit("lower.while")
		condB := l.f.NewBlock("while.cond")
		bodyB := l.f.NewBlock("while.body")
		exitB := l.f.NewBlock("while.exit")
		l.terminate(Term{Kind: TermJmp, To: condB}, condB)
		cond := l.expr(st.Cond)
		l.terminate(Term{Kind: TermBr, Cond: cond, To: bodyB, Else: exitB, Pos: st.Pos}, bodyB)
		l.breaks = append(l.breaks, exitB)
		l.conts = append(l.conts, condB)
		l.stmt(st.Body)
		l.breaks = l.breaks[:len(l.breaks)-1]
		l.conts = l.conts[:len(l.conts)-1]
		l.terminate(Term{Kind: TermJmp, To: condB}, exitB)
	case *cc.DoWhileStmt:
		l.hit("lower.dowhile")
		bodyB := l.f.NewBlock("do.body")
		condB := l.f.NewBlock("do.cond")
		exitB := l.f.NewBlock("do.exit")
		l.terminate(Term{Kind: TermJmp, To: bodyB}, bodyB)
		l.breaks = append(l.breaks, exitB)
		l.conts = append(l.conts, condB)
		l.stmt(st.Body)
		l.breaks = l.breaks[:len(l.breaks)-1]
		l.conts = l.conts[:len(l.conts)-1]
		l.terminate(Term{Kind: TermJmp, To: condB}, condB)
		cond := l.expr(st.Cond)
		l.terminate(Term{Kind: TermBr, Cond: cond, To: bodyB, Else: exitB, Pos: st.Pos}, exitB)
	case *cc.ForStmt:
		l.hit("lower.for")
		if st.Init != nil {
			l.stmt(st.Init)
		}
		condB := l.f.NewBlock("for.cond")
		bodyB := l.f.NewBlock("for.body")
		postB := l.f.NewBlock("for.post")
		exitB := l.f.NewBlock("for.exit")
		l.terminate(Term{Kind: TermJmp, To: condB}, condB)
		if st.Cond != nil {
			cond := l.expr(st.Cond)
			l.terminate(Term{Kind: TermBr, Cond: cond, To: bodyB, Else: exitB, Pos: st.Pos}, bodyB)
		} else {
			l.terminate(Term{Kind: TermJmp, To: bodyB}, bodyB)
		}
		l.breaks = append(l.breaks, exitB)
		l.conts = append(l.conts, postB)
		l.stmt(st.Body)
		l.breaks = l.breaks[:len(l.breaks)-1]
		l.conts = l.conts[:len(l.conts)-1]
		l.terminate(Term{Kind: TermJmp, To: postB}, postB)
		if st.Post != nil {
			l.exprDiscard(st.Post)
		}
		l.terminate(Term{Kind: TermJmp, To: condB}, exitB)
	case *cc.ReturnStmt:
		l.hit("lower.return")
		t := Term{Kind: TermRet, Pos: st.Pos}
		if st.X != nil {
			t.Val = l.expr(st.X)
			t.HasVal = true
		}
		l.terminate(t, nil)
	case *cc.BreakStmt:
		if len(l.breaks) == 0 {
			l.unsupported(st.Pos, "break outside loop")
		}
		l.terminate(Term{Kind: TermJmp, To: l.breaks[len(l.breaks)-1]}, nil)
	case *cc.ContinueStmt:
		if len(l.conts) == 0 {
			l.unsupported(st.Pos, "continue outside loop")
		}
		l.terminate(Term{Kind: TermJmp, To: l.conts[len(l.conts)-1]}, nil)
	case *cc.GotoStmt:
		l.hit("lower.goto")
		l.crashSticky("frontend-goto-irreducible", func() bool {
			// seeded crash: goto jumping backward into a loop context
			// (modeled on GCC PR69740's irreducible-loop assertion)
			return l.labels[st.Label] != nil && len(l.breaks) > 0
		})
		l.terminate(Term{Kind: TermJmp, To: l.labelBlock(st.Label)}, nil)
	case *cc.LabeledStmt:
		b := l.labelBlock(st.Label)
		l.terminate(Term{Kind: TermJmp, To: b}, b)
		l.stmt(st.Stmt)
	default:
		l.unsupported(st.NodePos(), "statement %T", st)
	}
}

func (l *lowerer) declStmt(d *cc.VarDecl) {
	l.hit("lower.decl")
	sym := d.Sym
	l.bindVar(sym)
	if sym.Storage == cc.StorageStatic {
		// static locals are initialized once at program start, not at each
		// execution of the declaration
		l.irp.Statics = append(l.irp.Statics, d)
		return
	}
	if d.Init == nil {
		return
	}
	if il, ok := d.Init.(*cc.InitList); ok {
		l.lowerInitList(sym, il)
		return
	}
	v := l.expr(d.Init)
	v = l.convTo(v, scalarOf(sym.Type), d.Init.NodePos())
	l.storeVar(sym, v, d.Pos)
}

func (l *lowerer) lowerInitList(sym *cc.Symbol, il *cc.InitList) {
	base := l.f.NewReg()
	l.emit(Instr{Op: OpAddrVar, Dst: base, Sym: sym, Pos: il.Pos})
	// zero-fill then assign listed elements, mirroring C semantics
	total := cellCountOf(sym.Type)
	zero := l.constInt(0, scalarOf(sym.Type), il.Pos)
	for i := 0; i < total; i++ {
		idx := l.constInt(int64(i), cc.TypeInt, il.Pos)
		addr := l.f.NewReg()
		l.emit(Instr{Op: OpAddrIdx, Dst: addr, A: base, B: idx, Scale: 1, Pos: il.Pos})
		l.emit(Instr{Op: OpStore, A: addr, B: zero, Pos: il.Pos})
	}
	l.storeInitCells(base, 0, sym.Type, il)
}

func (l *lowerer) storeInitCells(base Reg, off int, t cc.Type, il *cc.InitList) int {
	switch t := t.(type) {
	case *cc.ArrayType:
		elemCells := cellCountOf(t.Elem)
		for i, e := range il.List {
			if sub, ok := e.(*cc.InitList); ok {
				l.storeInitCells(base, off+i*elemCells, t.Elem, sub)
			} else {
				l.storeCellAt(base, off+i*elemCells, t.Elem, e)
			}
		}
		return off + t.Len*elemCells
	case *cc.StructType:
		fo := off
		for i, e := range il.List {
			if i >= len(t.Fields) {
				break
			}
			ft := t.Fields[i].Type
			if sub, ok := e.(*cc.InitList); ok {
				l.storeInitCells(base, fo, ft, sub)
			} else {
				l.storeCellAt(base, fo, ft, e)
			}
			fo += cellCountOf(ft)
		}
		return off + cellCountOf(t)
	default:
		if len(il.List) == 1 {
			l.storeCellAt(base, off, t, il.List[0])
		}
		return off + 1
	}
}

func (l *lowerer) storeCellAt(base Reg, off int, t cc.Type, e cc.Expr) {
	v := l.expr(e)
	v = l.convTo(v, scalarOf(t), e.NodePos())
	idx := l.constInt(int64(off), cc.TypeInt, e.NodePos())
	addr := l.f.NewReg()
	l.emit(Instr{Op: OpAddrIdx, Dst: addr, A: base, B: idx, Scale: 1, Pos: e.NodePos()})
	l.emit(Instr{Op: OpStore, A: addr, B: v, Pos: e.NodePos()})
}

// storeVar writes a value to a variable (register or memory).
func (l *lowerer) storeVar(sym *cc.Symbol, v Reg, pos cc.Pos) {
	l.bindVar(sym)
	if r, ok := l.f.VarRegs[sym]; ok {
		l.emit(Instr{Op: OpCopy, Dst: r, A: v, Pos: pos})
		return
	}
	addr := l.f.NewReg()
	l.emit(Instr{Op: OpAddrVar, Dst: addr, Sym: sym, Pos: pos})
	l.emit(Instr{Op: OpStore, A: addr, B: v, Pos: pos})
}

func scalarOf(t cc.Type) cc.Type {
	if at, ok := t.(*cc.ArrayType); ok {
		return scalarOf(at.Elem)
	}
	return t
}

func cellCountOf(t cc.Type) int {
	switch t := t.(type) {
	case *cc.ArrayType:
		return t.Len * cellCountOf(t.Elem)
	case *cc.StructType:
		n := 0
		for _, f := range t.Fields {
			n += cellCountOf(f.Type)
		}
		return n
	default:
		return 1
	}
}
