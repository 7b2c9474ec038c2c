package minicc

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spe/internal/cc"
	"spe/internal/interp"
)

// ExecConfig bounds an execution of compiled code.
type ExecConfig struct {
	MaxSteps  int64 // default 4,000,000
	MaxDepth  int   // default 256
	MaxOutput int   // default 1 MiB
	// Dispatch selects the execution engine: DispatchThreaded (the
	// default, a per-opcode handler table) or DispatchSwitch (the
	// monolithic opcode switch). Both run the same fused code and are
	// observationally identical down to step counts.
	Dispatch string
	// NoFuse skips the lazy superinstruction fusion of not-yet-fused
	// programs — a benchmark knob isolating what fusion buys. Programs
	// already fused (template-cached IR) run fused regardless.
	NoFuse bool
}

func (c ExecConfig) withDefaults() ExecConfig {
	if c.MaxSteps == 0 {
		c.MaxSteps = 4_000_000
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

// ExecResult is the outcome of running compiled code. Unlike the reference
// interpreter, the VM does not detect undefined behavior: it models the
// emitted binary, which does whatever the hardware does. Trap reports a
// runtime fault (segfault analogue); Timeout reports step exhaustion.
type ExecResult struct {
	Output  string
	Exit    int
	Trap    string
	Timeout bool
	Aborted bool
	Steps   int64
}

// Ok reports a clean run.
func (r *ExecResult) Ok() bool { return r.Trap == "" && !r.Timeout && !r.Aborted }

type vmTrap struct{ msg string }
type vmTimeout struct{}
type vmExit struct{ code int }
type vmAbort struct{}

type vm struct {
	prog    *Program
	cfg     ExecConfig
	cov     *Coverage
	bugs    *BugSet
	st      *execState
	globals map[*cc.Symbol]*interp.Object
	statics map[*cc.Symbol]*interp.Object
	strs    map[string]*interp.Object
	out     []byte
	steps   int64
	// stop is where the threaded loop's block tick enters its slow path:
	// min(MaxSteps, the loop detector's next stop) (see loop.go)
	stop   int64
	depth  int
	nextID int
	calls  int64 // call instances so far; numbers each frame for the detector
	// brReady/brTaken carry a fused OpCmpBr's verdict to the block's
	// TermBr terminator; the comparison is always the block's last
	// instruction, so the flag never survives past the next terminator.
	brReady bool
	brTaken bool
}

// execState is the VM's reusable machine state: the global/static/string
// environments, the output buffer, an object slab, a register-file free
// list, and the loop detector's buffers. One execState serves many Execute
// runs in sequence (the campaign's per-worker backend cache holds one);
// reset clears the environments and rewinds the slab instead of
// reallocating. Strictly single-goroutine.
type execState struct {
	globals  map[*cc.Symbol]*interp.Object
	statics  map[*cc.Symbol]*interp.Object
	strs     map[string]*interp.Object
	strObjs  []*interp.Object // strs' objects in intern order
	out      []byte
	objs     []*interp.Object
	objUsed  int
	regsFree [][]interp.Value
	argsFree [][]interp.Value
	loop     loopState
}

func newExecState() *execState {
	return &execState{
		globals: make(map[*cc.Symbol]*interp.Object),
		statics: make(map[*cc.Symbol]*interp.Object),
		strs:    make(map[string]*interp.Object),
	}
}

func (st *execState) reset() {
	for k := range st.globals {
		delete(st.globals, k)
	}
	for k := range st.statics {
		delete(st.statics, k)
	}
	for k := range st.strs {
		delete(st.strs, k)
	}
	st.strObjs = st.strObjs[:0]
	st.out = st.out[:0]
	st.objUsed = 0
	st.loop.reset()
}

// allocObj hands out a slab object. Cells of reused objects are NOT
// cleared: every caller fully initializes the cells it allocates (globals,
// statics, and frame-local memory objects are all zero-filled on
// allocation, matching the deterministic-binary model).
func (st *execState) allocObj(id, cells int, name string) *interp.Object {
	if st.objUsed < len(st.objs) {
		obj := st.objs[st.objUsed]
		st.objUsed++
		cs := obj.Cells
		if cap(cs) >= cells {
			cs = cs[:cells]
		} else {
			cs = make([]interp.Cell, cells)
		}
		*obj = interp.Object{ID: id, Cells: cs, Live: true, Name: name}
		return obj
	}
	obj := &interp.Object{ID: id, Cells: make([]interp.Cell, cells), Live: true, Name: name}
	st.objs = append(st.objs, obj)
	st.objUsed++
	return obj
}

// getRegs hands out a zeroed register file of length n.
func (st *execState) getRegs(n int) []interp.Value {
	if k := len(st.regsFree); k > 0 {
		r := st.regsFree[k-1]
		st.regsFree = st.regsFree[:k-1]
		if cap(r) >= n {
			r = r[:n]
			for i := range r {
				r[i] = interp.Value{}
			}
			return r
		}
	}
	return make([]interp.Value, n)
}

func (st *execState) putRegs(r []interp.Value) { st.regsFree = append(st.regsFree, r) }

// getArgs hands out a call-argument buffer of length n; callers fully
// assign every element, so reused buffers are not cleared.
func (st *execState) getArgs(n int) []interp.Value {
	if k := len(st.argsFree); k > 0 {
		a := st.argsFree[k-1]
		st.argsFree = st.argsFree[:k-1]
		if cap(a) >= n {
			return a[:n]
		}
	}
	return make([]interp.Value, n)
}

func (st *execState) putArgs(a []interp.Value) { st.argsFree = append(st.argsFree, a) }

// Execute runs a compiled program's main function on fresh, single-use
// machine state. Callers executing many programs in sequence go through a
// Cache (RunCached), which reuses one execState across runs.
func Execute(p *Program, bugs *BugSet, cov *Coverage, cfg ExecConfig) *ExecResult {
	return executeWith(nil, p, bugs, cov, cfg)
}

// executeWith is Execute on pooled machine state. st may be nil (a fresh
// state is built); a non-nil st is reset and reused, and must not be shared
// across goroutines.
func executeWith(st *execState, p *Program, bugs *BugSet, cov *Coverage, cfg ExecConfig) (res *ExecResult) {
	cfg = cfg.withDefaults()
	if bugs == nil {
		bugs = EmptyBugSet()
	}
	if st == nil {
		st = newExecState()
	}
	st.reset()
	// fuse lazily: template-cached programs arrive pre-fused; fresh
	// compilations (and post-pass scratch IR) are fused here, once,
	// unless the benchmark knob opts out
	if !p.fused && !cfg.NoFuse {
		fuseProgram(p)
	}
	m := &vm{
		prog: p, cfg: cfg, cov: cov, bugs: bugs, st: st,
		globals: st.globals,
		statics: st.statics,
		strs:    st.strs,
		out:     st.out,
		stop:    min(cfg.MaxSteps, firstProbe),
	}
	res = &ExecResult{}
	defer func() {
		st.out = m.out // return the (possibly grown) buffer to the pool
		res.Output = string(m.out)
		res.Steps = m.steps
		if r := recover(); r != nil {
			switch t := r.(type) {
			case vmTrap:
				res.Trap = t.msg
			case vmTimeout:
				res.Timeout = true
			case vmExit:
				res.Exit = t.code
			case vmAbort:
				res.Aborted = true
			default:
				panic(r)
			}
		}
	}()
	cov.Hit("vm.entry")
	m.initGlobals()
	mainFn, ok := p.Funcs["main"]
	if !ok {
		res.Trap = "no main"
		return res
	}
	v, has := m.call(mainFn, nil)
	if has {
		res.Exit = int(uint8(v.I()))
	}
	return res
}

func (m *vm) trap(format string, args ...interface{}) {
	panic(vmTrap{msg: fmt.Sprintf(format, args...)})
}

func (m *vm) tick() {
	m.steps++
	if m.steps > m.cfg.MaxSteps {
		panic(vmTimeout{})
	}
}

func (m *vm) allocObj(t cc.Type, name string) *interp.Object {
	m.nextID++
	return m.st.allocObj(m.nextID, cellCountOf(t), name)
}

// initGlobals evaluates constant global initializers. C requires global
// initializers to be constant expressions, so a small evaluator suffices.
func (m *vm) initGlobals() {
	for _, vd := range m.prog.Globals {
		obj := m.allocObj(vd.Sym.Type, vd.Name)
		obj.Persistent = true
		// globals are zero-initialized
		st := scalarOf(vd.Sym.Type)
		for i := range obj.Cells {
			obj.Cells[i] = interp.Cell{Val: zeroVal(st), Init: true}
		}
		m.globals[vd.Sym] = obj
	}
	// initializers may reference other globals (&a), so a second pass
	for _, vd := range m.prog.Globals {
		if vd.Init == nil {
			continue
		}
		obj := m.globals[vd.Sym]
		m.constInit(obj, 0, vd.Sym.Type, vd.Init)
	}
	// static locals: allocated once, zeroed, then constant-initialized
	for _, vd := range m.prog.Statics {
		obj := m.allocObj(vd.Sym.Type, vd.Name)
		obj.Persistent = true
		st := scalarOf(vd.Sym.Type)
		for i := range obj.Cells {
			obj.Cells[i] = interp.Cell{Val: zeroVal(st), Init: true}
		}
		if vd.Init != nil {
			m.constInit(obj, 0, vd.Sym.Type, vd.Init)
		}
		m.statics[vd.Sym] = obj
	}
}

func zeroVal(t cc.Type) interp.Value {
	if bt, ok := t.(*cc.BasicType); ok && bt.IsFloat() {
		return interp.FloatValue(0, t)
	}
	if _, ok := t.(*cc.PointerType); ok {
		return interp.PtrValue(interp.Pointer{}, t)
	}
	return interp.IntValue(0, t)
}

func (m *vm) constInit(obj *interp.Object, off int, t cc.Type, e cc.Expr) {
	switch init := e.(type) {
	case *cc.InitList:
		switch t := t.(type) {
		case *cc.ArrayType:
			ec := cellCountOf(t.Elem)
			for i, sub := range init.List {
				m.constInit(obj, off+i*ec, t.Elem, sub)
			}
		case *cc.StructType:
			fo := off
			for i, sub := range init.List {
				if i >= len(t.Fields) {
					break
				}
				m.constInit(obj, fo, t.Fields[i].Type, sub)
				fo += cellCountOf(t.Fields[i].Type)
			}
		default:
			if len(init.List) == 1 {
				m.constInit(obj, off, t, init.List[0])
			}
		}
	default:
		v, ok := m.constEval(e, scalarOf(t))
		if !ok {
			m.trap("non-constant global initializer at %s", e.NodePos())
		}
		obj.Cells[off] = interp.Cell{Val: v, Init: true}
	}
}

// constEval evaluates a constant expression for global initialization.
func (m *vm) constEval(e cc.Expr, t cc.Type) (interp.Value, bool) {
	switch e := e.(type) {
	case *cc.IntLit:
		return convertVal(interp.IntValue(e.Val, e.Type), t, m), true
	case *cc.FloatLit:
		return convertVal(interp.FloatValue(e.Val, e.Type), t, m), true
	case *cc.CharLit:
		return convertVal(interp.IntValue(int64(e.Val), cc.TypeInt), t, m), true
	case *cc.StringLit:
		return interp.PtrValue(interp.Pointer{Obj: m.internStr(e.Val), Elem: cc.TypeChar}, e.Type), true
	case *cc.UnaryExpr:
		if e.Op == "-" || e.Op == "+" || e.Op == "~" || e.Op == "!" {
			v, ok := m.constEval(e.X, exprType(e.X))
			if !ok {
				return interp.Value{}, false
			}
			switch e.Op {
			case "-":
				if v.Kind == interp.VFloat {
					return convertVal(interp.FloatValue(-v.F(), v.Typ()), t, m), true
				}
				return convertVal(interp.IntValue(-v.I(), v.Typ()), t, m), true
			case "+":
				return convertVal(v, t, m), true
			case "~":
				return convertVal(interp.IntValue(^v.I(), v.Typ()), t, m), true
			default:
				b := int64(0)
				if v.IsZero() {
					b = 1
				}
				return convertVal(interp.IntValue(b, cc.TypeInt), t, m), true
			}
		}
		if e.Op == "&" {
			if id, ok := e.X.(*cc.Ident); ok && id.Sym != nil {
				obj, found := m.globals[id.Sym]
				if found {
					elem := id.Sym.Type
					if at, isArr := elem.(*cc.ArrayType); isArr {
						elem = at.Elem
					}
					return interp.PtrValue(interp.Pointer{Obj: obj, Elem: elem}, t), true
				}
			}
		}
		return interp.Value{}, false
	case *cc.CastExpr:
		v, ok := m.constEval(e.X, exprType(e.X))
		if !ok {
			return interp.Value{}, false
		}
		return convertVal(v, e.To, m), true
	case *cc.Ident:
		// address constant of an array global decays to a pointer
		if id := e; id.Sym != nil {
			if at, isArr := id.Sym.Type.(*cc.ArrayType); isArr {
				if obj, found := m.globals[id.Sym]; found {
					return interp.PtrValue(interp.Pointer{Obj: obj, Elem: at.Elem}, t), true
				}
			}
		}
		return interp.Value{}, false
	default:
		return interp.Value{}, false
	}
}

func (m *vm) internStr(s string) *interp.Object {
	obj, ok := m.strs[s]
	if !ok {
		obj = &interp.Object{ID: -1, Name: "str", Live: true, Persistent: true, Cells: make([]interp.Cell, len(s)+1)}
		for i := 0; i < len(s); i++ {
			obj.Cells[i] = interp.Cell{Val: interp.IntValue(int64(s[i]), cc.TypeChar), Init: true}
		}
		obj.Cells[len(s)] = interp.Cell{Val: interp.IntValue(0, cc.TypeChar), Init: true}
		m.strs[s] = obj
		m.st.strObjs = append(m.st.strObjs, obj)
	}
	return obj
}

// call executes one compiled function.
func (m *vm) call(f *Func, args []interp.Value) (interp.Value, bool) {
	m.cov.hit(siteVMCall)
	if m.depth >= m.cfg.MaxDepth {
		m.trap("stack overflow in %s", f.Name)
	}
	m.depth++
	defer func() { m.depth-- }()
	m.calls++
	call := m.calls

	regs := m.st.getRegs(f.NumRegs + 1)
	defer m.st.putRegs(regs)
	// vars stays nil for the common frame with no memory-resident locals
	// (lookups on a nil map are legal); frame objects allocate in
	// declaration order so their observable IDs are deterministic
	var vars map[*cc.Symbol]*interp.Object
	if ml := f.memVars(); len(ml) > 0 {
		vars = make(map[*cc.Symbol]*interp.Object, len(ml))
		for _, sym := range ml {
			obj := m.allocObj(sym.Type, sym.Name)
			vars[sym] = obj
			for i := range obj.Cells {
				obj.Cells[i] = interp.Cell{Val: zeroVal(scalarOf(sym.Type)), Init: true}
			}
		}
	}
	// bind parameters
	for i, p := range f.Decl.Params {
		if p.Sym == nil {
			continue
		}
		var v interp.Value
		if i < len(args) {
			v = args[i]
		} else {
			v = zeroVal(scalarOf(p.Type))
		}
		if r, ok := f.VarRegs[p.Sym]; ok {
			regs[r] = v
		} else if obj, ok := vars[p.Sym]; ok {
			obj.Cells[0] = interp.Cell{Val: v, Init: true}
		}
	}

	threaded := m.cfg.Dispatch != DispatchSwitch
	b := f.Entry
	for {
		// one tick per block transition: empty-block cycles (a miscompiled
		// infinite loop whose body folded away) must still exhaust the
		// step budget. The threaded loop's tick also stops for the loop
		// detector.
		ins := b.Instrs
		if threaded {
			if m.steps++; m.steps > m.stop {
				m.atStop(call, b, regs)
			}
			for i := 0; i < len(ins); {
				m.tick()
				i += opHandlers[ins[i].Op](m, f, b, ins, i, regs, vars)
			}
		} else {
			m.tick()
			for i := 0; i < len(ins); {
				m.tick()
				i += m.execInstrN(f, b, ins, i, regs, vars)
			}
		}
		switch b.Term.Kind {
		case TermJmp:
			b = b.Term.To
		case TermBr:
			m.cov.hit(siteVMBranch)
			taken := false
			if m.brReady {
				taken = m.brTaken
				m.brReady = false
			} else {
				taken = !regs[b.Term.Cond].IsZero()
			}
			if taken {
				b = b.Term.To
			} else {
				b = b.Term.Else
			}
		case TermRet:
			if b.Term.HasVal {
				return regs[b.Term.Val], true
			}
			return interp.Value{}, false
		}
		if b == nil {
			m.trap("fell off the CFG in %s", f.Name)
		}
	}
}

// memVars returns the function's frame-allocated locals (locals only:
// globals are shared, statics persist separately) in declaration order,
// cached on first use. The order is load-bearing: frame objects allocate
// in this order, and object IDs are observable through pointer-to-integer
// conversion, so iteration-order nondeterminism here would leak into
// program output.
func (f *Func) memVars() []*cc.Symbol {
	if !f.memListed {
		for sym := range f.MemVars {
			if sym.Scope.Parent != nil && sym.Storage != cc.StorageStatic {
				f.memList = append(f.memList, sym)
			}
		}
		sort.Slice(f.memList, func(i, j int) bool { return f.memList[i].ID < f.memList[j].ID })
		f.memListed = true
	}
	return f.memList
}

func (m *vm) varObj(f *Func, sym *cc.Symbol, vars map[*cc.Symbol]*interp.Object) *interp.Object {
	if obj, ok := m.statics[sym]; ok {
		return obj
	}
	if sym.Scope.Parent == nil {
		if obj, ok := m.globals[sym]; ok {
			return obj
		}
		m.trap("unknown global %s", sym.Name)
	}
	if obj, ok := vars[sym]; ok {
		return obj
	}
	m.trap("unknown local %s in %s", sym.Name, f.Name)
	return nil
}

// Per-opcode execution bodies, shared verbatim by the switch engine
// (execInstr) and the threaded handler table (dispatch.go) so the two
// engines cannot drift.

func (m *vm) execConst(in *Instr, regs []interp.Value) {
	switch {
	case in.Val.IsStr:
		regs[in.Dst] = interp.PtrValue(interp.Pointer{Obj: m.internStr(in.Val.Str), Elem: cc.TypeChar}, in.Type)
	case in.Val.IsFloat:
		regs[in.Dst] = interp.FloatValue(in.Val.F, in.Type)
	default:
		regs[in.Dst] = interp.IntValue(in.Val.I, in.Type)
	}
}

func (m *vm) execBin(in *Instr, regs []interp.Value) {
	m.cov.hit(siteVMBin)
	m.cov.hitOp(familyVMBin, in.BinOp)
	regs[in.Dst] = m.binop(in.BinOp, regs[in.A], regs[in.B], in.Type)
}

func (m *vm) execAddrVar(f *Func, in *Instr, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) {
	obj := m.varObj(f, in.Sym, vars)
	regs[in.Dst] = interp.PtrValue(interp.Pointer{Obj: obj, Off: 0, Elem: scalarOf(in.Sym.Type)}, &cc.PointerType{Elem: in.Sym.Type})
}

func (m *vm) execAddrIdx(in *Instr, regs []interp.Value) {
	base := regs[in.A]
	if base.Kind != interp.VPtr {
		m.trap("address arithmetic on non-pointer at %s", in.Pos)
	}
	idx := regs[in.B]
	np := base.P
	np.Off += int(idx.I()) * in.Scale
	regs[in.Dst] = interp.PtrValue(np, base.Typ())
}

func (m *vm) execLoad(in *Instr, regs []interp.Value) {
	m.cov.hit(siteVMLoad)
	v := regs[in.A]
	if v.Kind != interp.VPtr {
		m.trap("load through non-pointer at %s", in.Pos)
	}
	p := v.P
	if p.IsNull() || !p.Obj.Live || p.Off < 0 || p.Off >= len(p.Obj.Cells) {
		m.trap("segmentation fault (load) at %s", in.Pos)
	}
	regs[in.Dst] = p.Obj.Cells[p.Off].Val
}

func (m *vm) execStore(in *Instr, regs []interp.Value) {
	m.cov.hit(siteVMStore)
	v := regs[in.A]
	if v.Kind != interp.VPtr {
		m.trap("store through non-pointer at %s", in.Pos)
	}
	p := v.P
	if p.IsNull() || !p.Obj.Live || p.Off < 0 || p.Off >= len(p.Obj.Cells) {
		m.trap("segmentation fault (store) at %s", in.Pos)
	}
	p.Obj.Cells[p.Off] = interp.Cell{Val: regs[in.B], Init: true}
}

func (m *vm) execInstr(f *Func, in *Instr, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) {
	switch in.Op {
	case OpConst:
		m.execConst(in, regs)
	case OpCopy:
		regs[in.Dst] = regs[in.A]
	case OpBin:
		m.execBin(in, regs)
	case OpUn:
		regs[in.Dst] = m.unop(in.UnOp, regs[in.A], in.Type)
	case OpConv:
		regs[in.Dst] = convertVal(regs[in.A], in.Type, m)
	case OpAddrVar:
		m.execAddrVar(f, in, regs, vars)
	case OpAddrIdx:
		m.execAddrIdx(in, regs)
	case OpLoad:
		m.execLoad(in, regs)
	case OpStore:
		m.execStore(in, regs)
	case OpCall:
		m.execCall(f, in, regs, vars)
	default:
		m.trap("unknown opcode %d", in.Op)
	}
}

func (m *vm) execCall(f *Func, in *Instr, regs []interp.Value, vars map[*cc.Symbol]*interp.Object) {
	switch in.Name {
	case "printf":
		m.cov.Hit("vm.printf")
		if len(in.Args) == 0 {
			m.trap("printf without format")
		}
		format, ok := m.readStr(regs[in.Args[0]])
		if !ok {
			m.trap("printf: bad format pointer")
		}
		argi := 1
		next := func() (interp.Value, bool) {
			if argi >= len(in.Args) {
				return interp.Value{}, false
			}
			v := regs[in.Args[argi]]
			argi++
			return v, true
		}
		out, _ := interp.FormatPrintf(format, next, m.readStr)
		m.out = append(m.out, out...)
		if len(m.out) > m.cfg.MaxOutput {
			panic(vmTimeout{})
		}
		if in.Dst != NoReg {
			regs[in.Dst] = interp.IntValue(int64(len(out)), cc.TypeInt)
		}
		return
	case "abort":
		panic(vmAbort{})
	case "exit":
		code := 0
		if len(in.Args) > 0 {
			code = int(uint8(regs[in.Args[0]].I()))
		}
		panic(vmExit{code: code})
	}
	callee, ok := m.prog.Funcs[in.Name]
	if !ok {
		m.trap("undefined function %s", in.Name)
	}
	// args come from a pooled buffer: the callee copies every value into
	// its own registers or parameter objects before returning, so the
	// buffer can be recycled as soon as the call completes
	args := m.st.getArgs(len(in.Args))
	for i, a := range in.Args {
		args[i] = regs[a]
	}
	v, has := m.call(callee, args)
	m.st.putArgs(args)
	if in.Dst != NoReg {
		if !has {
			// the binary returns whatever was in the result register:
			// deterministically zero in this model
			v = interp.IntValue(0, cc.TypeInt)
		}
		regs[in.Dst] = v
	}
}

func (m *vm) readStr(v interp.Value) (string, bool) {
	if v.Kind != interp.VPtr || v.P.IsNull() {
		return "", false
	}
	var sb strings.Builder
	p := v.P
	for n := 0; n < 1<<16; n++ {
		if !p.Obj.Live || p.Off < 0 || p.Off >= len(p.Obj.Cells) {
			return "", false
		}
		c := p.Obj.Cells[p.Off].Val
		if c.I() == 0 {
			return sb.String(), true
		}
		sb.WriteByte(byte(c.I()))
		p.Off++
	}
	return "", false
}

// ---------------------------------------------------------------- arith

func (m *vm) unop(op string, a interp.Value, t cc.Type) interp.Value {
	switch op {
	case "-":
		if a.Kind == interp.VFloat {
			return interp.FloatValue(-a.F(), t)
		}
		return m.truncTo(-a.I(), t)
	case "~":
		return m.truncTo(^a.I(), t)
	case "!":
		if a.IsZero() {
			return interp.IntValue(1, cc.TypeInt)
		}
		return interp.IntValue(0, cc.TypeInt)
	case "+":
		return a
	default:
		m.trap("unknown unary %s", op)
		return interp.Value{}
	}
}

// truncTo truncates to a type's width; the seeded "vm-uchar-wrap" bug skips
// the truncation of unsigned char results (the backend "forgets" the
// zero-extension), a defined-behavior miscompilation.
func (m *vm) truncTo(v int64, t cc.Type) interp.Value {
	if bt, ok := t.(*cc.BasicType); ok && bt.Kind == cc.UChar && m.bugs.Active("vm-uchar-wrap") {
		return interp.RawIntValue(v, t)
	}
	return interp.IntValue(v, t)
}

func (m *vm) binop(op string, a, b interp.Value, t cc.Type) interp.Value {
	if a.Kind == interp.VPtr || b.Kind == interp.VPtr {
		return m.ptrBinop(op, a, b)
	}
	if a.Kind == interp.VFloat || b.Kind == interp.VFloat {
		x, y := interp.ToFloat(a), interp.ToFloat(b)
		switch op {
		case "+":
			return interp.FloatValue(x+y, t)
		case "-":
			return interp.FloatValue(x-y, t)
		case "*":
			return interp.FloatValue(x*y, t)
		case "/":
			return interp.FloatValue(x/y, t)
		case "==", "!=", "<", ">", "<=", ">=":
			return boolVal(floatCmp(op, x, y))
		default:
			m.trap("bad float op %s", op)
		}
	}
	unsigned := false
	if bt, ok := t.(*cc.BasicType); ok {
		unsigned = bt.IsUnsigned()
	}
	x, y := a.I(), b.I()
	switch op {
	case "+":
		return m.truncTo(x+y, t)
	case "-":
		return m.truncTo(x-y, t)
	case "*":
		return m.truncTo(x*y, t)
	case "/":
		if y == 0 {
			m.trap("integer division by zero (SIGFPE)")
		}
		if x == math.MinInt64 && y == -1 {
			m.trap("integer overflow trap (SIGFPE)")
		}
		if unsigned {
			return m.truncTo(int64(uint64(x)/uint64(y)), t)
		}
		return m.truncTo(x/y, t)
	case "%":
		if y == 0 {
			m.trap("integer division by zero (SIGFPE)")
		}
		if x == math.MinInt64 && y == -1 {
			m.trap("integer overflow trap (SIGFPE)")
		}
		if unsigned {
			return m.truncTo(int64(uint64(x)%uint64(y)), t)
		}
		return m.truncTo(x%y, t)
	case "&":
		return m.truncTo(x&y, t)
	case "|":
		return m.truncTo(x|y, t)
	case "^":
		return m.truncTo(x^y, t)
	case "<<":
		// hardware masks the shift count
		return m.truncTo(x<<uint(y&63), t)
	case ">>":
		if unsigned {
			w := uint(64)
			if bt, ok := t.(*cc.BasicType); ok {
				switch bt.Kind {
				case cc.UChar:
					w = 8
				case cc.UShort:
					w = 16
				case cc.UInt:
					w = 32
				}
			}
			ux := uint64(x)
			if w < 64 {
				ux &= uint64(1)<<w - 1
			}
			return m.truncTo(int64(ux>>uint(y&63)), t)
		}
		return m.truncTo(x>>uint(y&63), t)
	case "==", "!=", "<", ">", "<=", ">=":
		if unsigned {
			return boolVal(ucmp(op, uint64(x), uint64(y)))
		}
		return boolVal(scmp(op, x, y))
	default:
		m.trap("bad int op %s", op)
	}
	return interp.Value{}
}

func boolVal(b bool) interp.Value {
	if b {
		return interp.IntValue(1, cc.TypeInt)
	}
	return interp.IntValue(0, cc.TypeInt)
}

func floatCmp(op string, a, b float64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func scmp(op string, a, b int64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func ucmp(op string, a, b uint64) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func (m *vm) ptrBinop(op string, a, b interp.Value) interp.Value {
	switch op {
	case "+", "-":
		if a.Kind == interp.VPtr && b.Kind == interp.VInt {
			np := a.P
			d := int(b.I()) * cellCountOf(np.Elem)
			if op == "-" {
				d = -d
			}
			np.Off += d
			return interp.PtrValue(np, a.Typ())
		}
		if a.Kind == interp.VInt && b.Kind == interp.VPtr && op == "+" {
			np := b.P
			np.Off += int(a.I()) * cellCountOf(np.Elem)
			return interp.PtrValue(np, b.Typ())
		}
		if a.Kind == interp.VPtr && b.Kind == interp.VPtr && op == "-" {
			scale := cellCountOf(a.P.Elem)
			if scale == 0 {
				scale = 1
			}
			return interp.IntValue(int64((a.P.Off-b.P.Off)/scale), cc.TypeLong)
		}
	case "==", "!=":
		same := false
		if a.Kind == interp.VPtr && b.Kind == interp.VPtr {
			same = a.P.Obj == b.P.Obj && a.P.Off == b.P.Off
		} else if a.Kind == interp.VInt && a.I() == 0 && b.Kind == interp.VPtr {
			same = b.P.IsNull()
		} else if b.Kind == interp.VInt && b.I() == 0 && a.Kind == interp.VPtr {
			same = a.P.IsNull()
		}
		if op == "!=" {
			same = !same
		}
		return boolVal(same)
	case "<", ">", "<=", ">=":
		if a.Kind == interp.VPtr && b.Kind == interp.VPtr {
			return boolVal(scmp(op, int64(a.P.Off), int64(b.P.Off)))
		}
	}
	m.trap("bad pointer op %s", op)
	return interp.Value{}
}

// convertVal converts v to type t with the VM's hardware semantics.
func convertVal(v interp.Value, t cc.Type, m *vm) interp.Value {
	switch tt := t.(type) {
	case *cc.PointerType:
		if v.Kind == interp.VPtr {
			np := v.P
			np.Elem = tt.Elem
			return interp.PtrValue(np, t)
		}
		if v.Kind == interp.VInt && v.I() == 0 {
			return interp.PtrValue(interp.Pointer{Elem: tt.Elem}, t)
		}
		return interp.PtrValue(interp.Pointer{Obj: nil, Off: int(v.I()), Elem: tt.Elem}, t)
	case *cc.BasicType:
		if tt.IsFloat() {
			return interp.FloatValue(interp.ToFloat(v), t)
		}
		switch v.Kind {
		case interp.VFloat:
			f := v.F()
			if math.IsNaN(f) || f > 9.2e18 || f < -9.2e18 {
				return interp.IntValue(0, t) // saturate deterministically
			}
			return m.truncTo(int64(f), t)
		case interp.VPtr:
			addr := int64(0)
			if v.P.Obj != nil {
				addr = int64(v.P.Obj.ID)*1_000_000 + int64(v.P.Off)
			}
			return m.truncTo(addr, t)
		default:
			return m.truncTo(v.I(), t)
		}
	}
	return v
}
