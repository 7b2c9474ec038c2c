package minicc

import (
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// lowerOne lowers a program and returns the named function's IR.
func lowerOne(t *testing.T, src, fn string) *Func {
	t.Helper()
	irp, err := Lower(analyzeT(t, src), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := irp.Funcs[fn]
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	return f
}

func newCtx() *passCtx {
	return &passCtx{cov: NewCoverage(), bugs: EmptyBugSet(), budget: 10_000_000}
}

func countOp(f *Func, op Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func countBinOp(f *Func, binop string) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == OpBin && b.Instrs[i].BinOp == binop {
				n++
			}
		}
	}
	return n
}

func TestConstFoldPass(t *testing.T) {
	f := lowerOne(t, `int main() { int a = 2 + 3 * 4; return a; }`, "main")
	p := newCtx()
	constFold(f, p)
	if got := countOp(f, OpBin); got != 0 {
		t.Errorf("binops after folding = %d, want 0\n%s", got, f)
	}
	if p.cov.SiteCount("constfold.bin") == 0 {
		t.Error("no folds recorded")
	}
}

func TestConstFoldBranch(t *testing.T) {
	f := lowerOne(t, `int main() { if (1) return 2; return 3; }`, "main")
	constFold(f, newCtx())
	// the branch on constant 1 must become a jump
	for _, b := range f.Blocks {
		if b.Term.Kind == TermBr {
			t.Errorf("constant branch not folded:\n%s", f)
		}
	}
}

func TestConstFoldRefusesDivByZero(t *testing.T) {
	f := lowerOne(t, `int main() { int z = 0; return 5 / z; }`, "main")
	constFold(f, newCtx())
	if got := countBinOp(f, "/"); got != 1 {
		t.Errorf("division folded away despite zero divisor (%d left)\n%s", got, f)
	}
}

func TestCopyPropPass(t *testing.T) {
	f := lowerOne(t, `int main() { int a = 1; int b = a; int c = b; return c; }`, "main")
	p := newCtx()
	copyProp(f, p)
	if p.cov.SiteCount("copyprop.replace") == 0 {
		t.Errorf("no copies propagated:\n%s", f)
	}
}

func TestCSEPass(t *testing.T) {
	// x*y computed twice with no redefinition between
	f := lowerOne(t, `
int main() {
    int x = 3, y = 4;
    int a = x * y;
    int b = x * y;
    return a + b;
}`, "main")
	p := newCtx()
	cse(f, p)
	if p.cov.SiteCount("cse.hit") == 0 {
		t.Errorf("CSE found nothing:\n%s", f)
	}
}

func TestCSERespectsRedefinition(t *testing.T) {
	// x redefined between the two computations: must NOT CSE
	src := `
int main() {
    int x = 3, y = 4;
    int a = x * y;
    x = 5;
    int b = x * y;
    return a * 100 + b;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	for _, opt := range OptLevels {
		c := &Compiler{Opt: opt}
		ro := c.Run(prog, ExecConfig{})
		if ro.Exec.Exit != ref.Exit {
			t.Errorf("-O%d: CSE across redefinition broke the program: %d vs %d",
				opt, ro.Exec.Exit, ref.Exit)
		}
	}
}

func TestDCEPass(t *testing.T) {
	f := lowerOne(t, `
int main() {
    int a = 1;
    int unused = a * 99;
    return a;
}`, "main")
	p := newCtx()
	constFold(f, p)
	copyProp(f, p)
	before := 0
	for _, b := range f.Blocks {
		before += len(b.Instrs)
	}
	dce(f, p)
	after := 0
	for _, b := range f.Blocks {
		after += len(b.Instrs)
	}
	if after >= before {
		t.Errorf("DCE removed nothing (%d -> %d)\n%s", before, after, f)
	}
}

func TestDeadStoreElimination(t *testing.T) {
	f := lowerOne(t, `
int g;
int main() {
    g = 1;
    g = 2;
    return g;
}`, "main")
	p := newCtx()
	dce(f, p)
	if p.cov.SiteCount("dce.deadstore") == 0 {
		t.Errorf("dead store not eliminated:\n%s", f)
	}
	// semantics preserved
	prog := analyzeT(t, `
int g;
int main() {
    g = 1;
    g = 2;
    return g;
}`)
	c := &Compiler{Opt: 1}
	if ro := c.Run(prog, ExecConfig{}); ro.Exec.Exit != 2 {
		t.Errorf("exit = %d, want 2", ro.Exec.Exit)
	}
}

func TestDeadStoreBlockedByCall(t *testing.T) {
	// a correct compiler must NOT eliminate the first store: the callee
	// observes it
	src := `
int g;
int s;
void obs() { s += g; }
int main() {
    g = 1;
    obs();
    g = 2;
    obs();
    return s;
}`
	prog := analyzeT(t, src)
	for _, opt := range OptLevels {
		c := &Compiler{Opt: opt}
		ro := c.Run(prog, ExecConfig{})
		if ro.Exec.Exit != 3 {
			t.Errorf("-O%d: exit = %d, want 3 (store-before-call eliminated?)", opt, ro.Exec.Exit)
		}
	}
}

func TestSimplifyCFGPass(t *testing.T) {
	f := lowerOne(t, `
int main() {
    int a = 1;
    if (a) { a = 2; } else { a = 3; }
    return a;
}`, "main")
	p := newCtx()
	before := len(f.Blocks)
	simplifyCFG(f, p)
	after := len(f.Blocks)
	if after > before {
		t.Errorf("simplifycfg grew the CFG: %d -> %d", before, after)
	}
	// unreachable code elimination after branch folding
	f2 := lowerOne(t, `int main() { if (0) { return 1; } return 2; }`, "main")
	constFold(f2, p)
	simplifyCFG(f2, p)
	if p.cov.SiteCount("simplifycfg.unreachable") == 0 {
		t.Errorf("unreachable block survived:\n%s", f2)
	}
}

func TestAliasForwardPass(t *testing.T) {
	f := lowerOne(t, `
int g;
int main() {
    g = 7;
    return g;
}`, "main")
	p := newCtx()
	aliasForward(f, p)
	if p.cov.SiteCount("alias.forward") == 0 {
		t.Errorf("store not forwarded to load:\n%s", f)
	}
}

func TestAliasForwardClobberedByPointerStore(t *testing.T) {
	src := `
int g;
int main() {
    int *p = &g;
    g = 7;
    *p = 9;
    return g;
}`
	prog := analyzeT(t, src)
	for _, opt := range OptLevels {
		c := &Compiler{Opt: opt}
		if ro := c.Run(prog, ExecConfig{}); ro.Exec.Exit != 9 {
			t.Errorf("-O%d: exit = %d, want 9 (forwarded across aliasing store?)", opt, ro.Exec.Exit)
		}
	}
}

func TestLICMPass(t *testing.T) {
	f := lowerOne(t, `
int main() {
    int x = 3, y = 4, s = 0;
    for (int i = 0; i < 8; i++) {
        s += x * y;
    }
    return s;
}`, "main")
	p := newCtx()
	licm(f, p)
	if p.cov.SiteCount("licm.hoist") == 0 {
		t.Errorf("invariant x*y not hoisted:\n%s", f)
	}
	if p.cov.SiteCount("licm.loop") == 0 {
		t.Error("no loop detected")
	}
}

func TestLICMDoesNotHoistGuardedDivision(t *testing.T) {
	// correct compiler: the division executes only under the guard
	src := `
int main() {
    int z = 0, s = 0;
    for (int i = 0; i < 4; i++) {
        if (i > 10) { s += 10 / z; }
        s += i;
    }
    return s;
}`
	prog := analyzeT(t, src)
	c := &Compiler{Opt: 3}
	ro := c.Run(prog, ExecConfig{})
	if !ro.Exec.Ok() || ro.Exec.Exit != 6 {
		t.Errorf("correct LICM hoisted a guarded division: %+v", ro.Exec)
	}
}

func TestIRStringDump(t *testing.T) {
	f := lowerOne(t, `int main() { int a = 1; if (a) a = 2; return a; }`, "main")
	s := f.String()
	for _, want := range []string{"func main", "b0:", "const 1", "br ", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("IR dump missing %q:\n%s", want, s)
		}
	}
}

func TestEvalConstBinCorners(t *testing.T) {
	if _, ok := evalConstBin("/", Const{I: 1}, Const{I: 0}, nil); ok {
		t.Error("folded division by zero")
	}
	if _, ok := evalConstBin("+", Const{IsFloat: true, F: 1}, Const{I: 2}, nil); ok {
		t.Error("folded float operands")
	}
	if r, ok := evalConstBin("<<", Const{I: 1}, Const{I: 4}, nil); !ok || r.I != 16 {
		t.Errorf("1<<4 = %v %v", r, ok)
	}
	if _, ok := evalConstBin("<<", Const{I: 1}, Const{I: 99}, nil); ok {
		t.Error("folded oversized shift")
	}
	// truncation honors the result type: 300 wraps to 44 in char
	if r, ok := evalConstBin("+", Const{I: 200}, Const{I: 100}, cc.TypeChar); !ok || r.I != 44 {
		t.Errorf("char truncation = %v %v", r, ok)
	}
}

// TestRedefinitionRetiresRecords pins the invalidation that copyProp, cse
// and aliasForward rely on: once a register is redefined, a copy of it, an
// expression over it, or a stored value in it must not be reused. Lowered
// code seldom reaches these cases, because copy sources and stored values
// are single-definition temporaries, so the IR is built by hand.
func TestRedefinitionRetiresRecords(t *testing.T) {
	block := func(instrs ...Instr) *Func {
		f := &Func{Name: "t", NumRegs: 6}
		f.Entry = f.NewBlock("entry")
		f.Entry.Instrs = instrs
		f.Entry.Term = Term{Kind: TermRet, HasVal: true, Val: 6}
		return f
	}
	add := func(dst, a, b Reg) Instr { return Instr{Op: OpBin, BinOp: "+", Dst: dst, A: a, B: b} }

	f := block(
		Instr{Op: OpCopy, Dst: 2, A: 1},
		add(1, 3, 4), // r1 redefined: r2 is no longer a copy of it
		add(6, 2, 2),
	)
	copyProp(f, newCtx())
	if in := f.Entry.Instrs[2]; in.A != 2 || in.B != 2 {
		t.Errorf("copyProp read a redefined source:\n%s", f)
	}

	f = block(
		Instr{Op: OpBin, BinOp: "*", Dst: 3, A: 1, B: 2},
		add(1, 4, 4), // r1 redefined: r1*r2 must be recomputed
		Instr{Op: OpBin, BinOp: "*", Dst: 5, A: 1, B: 2},
		add(6, 3, 5),
	)
	cse(f, newCtx())
	if f.Entry.Instrs[2].Op != OpBin {
		t.Errorf("cse reused an expression over a redefined register:\n%s", f)
	}

	g := &cc.Symbol{Name: "g"}
	f = block(
		Instr{Op: OpAddrVar, Dst: 1, Sym: g},
		Instr{Op: OpStore, A: 1, B: 2},
		add(2, 3, 4), // r2 redefined: the load must not forward it
		Instr{Op: OpLoad, Dst: 5, A: 1},
		add(6, 5, 5),
	)
	aliasForward(f, newCtx())
	if f.Entry.Instrs[3].Op != OpLoad {
		t.Errorf("aliasForward forwarded a redefined value:\n%s", f)
	}
}
