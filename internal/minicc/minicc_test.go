package minicc

import (
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// differential programs: every one is UB-free, so the unseeded compiler
// must reproduce the reference interpreter's output and exit code exactly
// at every optimization level.
var diffPrograms = []string{
	`int main() { return 2 + 3 * 4; }`,
	`int main() { int a = 1, b = 2; a = b; return a + b; }`,
	`int main() { int s = 0, i; for (i = 1; i <= 10; i++) s += i; return s; }`,
	`int main() { int i = 0; do i++; while (i < 3); return i; }`,
	`int main() { int i, s = 0; for (i = 0; i < 10; i++) { if (i == 5) break; if (i % 2) continue; s += i; } return s; }`,
	`int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int main() { return fib(10); }`,
	`int counter() { static int n = 0; n++; return n; }
int main() { counter(); counter(); return counter(); }`,
	`int a = 0;
int main() { int *p = &a, *q = &a; *p = 1; *q = 2; return a; }`,
	`int main() { int arr[5] = {1,2,3,4,5}; int *p = arr; p = p + 2; return *p + p[1] + *(p - 1); }`,
	`struct s { int x; int y; };
struct s v;
int main() { v.x = 3; v.y = 4; return v.x + v.y; }`,
	`struct s { int x; int y; };
int main() { struct s a = {1,2}, b; b = a; b.x += 10; return a.x + b.x + b.y; }`,
	`struct s { int c; };
struct s a, b, c;
int d; int e;
int main() { b.c = 1; c.c = 2; return e ? (d == 0 ? b : c).c : (d == 0 ? b : c).c; }`,
	`int main() { int a, b = 1; a = b - b; if (a) a = a - b; return a; }`,
	`int main() { int a, b = 1; a = b - b; if (b) a = b - b; return a + b; }`,
	`int main() { int x = 0; { int y = 2; x = y; } return x; }`,
	`int main() { int i = 0;
loop:
    i++;
    if (i < 5) goto loop;
    return i; }`,
	`int main() { int *p = 0;
trick:
    if (p) return *p;
    int x = 0;
    p = &x;
    goto trick;
    return 9; }`,
	`int g;
void setg(int v) { g = v; }
int main() { setg(3); setg(7); return g; }`,
	`int main() { unsigned int u = 4294967295u; u = u + 1u; return (int)u; }`,
	`int main() { unsigned char ch = 200; ch = ch + 100; return ch; }`,
	`int main() { double d = 1.5; d = d * 4.0; return (int)d; }`,
	`int main() { printf("%d %u %x %c %s|", -1, 7u, 255, 65, "hi"); printf("%05d", 42); return 0; }`,
	`int main() { int a = 5; a++; ++a; a--; int b = a++; return a * 10 + b; }`,
	`int main() { int a = 1; a <<= 3; a >>= 1; a |= 2; a &= 6; a ^= 1; return a; }`,
	`int main() { int x = 0; return (x && (1 / x)) + 7; }`,
	`int main() { int x = 1; return (x || (1 / 0)) + 7; }`,
	`int main() { int a; a = (1, 2, 3); return a; }`,
	`int main() { return (int)sizeof(int) + (int)sizeof(double); }`,
	`int m[2][3];
int main() { m[1][2] = 7; m[0][1] = 3; return m[1][2] + m[0][1]; }`,
	`int main() { char *s = "abc"; return s[0] + s[2] - 2 * 'a' - 2; }`,
	`int sum(int n) { int s = 0; while (n > 0) { s += n; n--; } return s; }
int main() { return sum(10) + sum(3); }`,
	`int main() { int s = 0; for (int i = 0; i < 4; i++) for (int j = 0; j < 3; j++) s += i * j; return s; }`,
	`int g1 = 5, g2 = 7;
int main() { int t = g1; g1 = g2; g2 = t; return g1 * 10 + g2; }`,
	`int main() { int a = 10, b = 3; return a / b * 100 + a % b; }`,
	`int main() { long l = 1234567l; l = l * 1000l; return (int)(l % 97l); }`,
	`int main() { int v = 5; int *p = &v; int **pp = &p; **pp = 9; return v; }`,
	`int main() { int a = 3; int b = a > 2 ? a * 2 : a - 1; return b; }`,
	`int main() { exit(3); return 0; }`,
	`int f() { return 1; } int g() { return 2; }
int main() { return f() * 10 + g(); }`,
}

func analyzeT(t *testing.T, src string) *cc.Program {
	t.Helper()
	f, err := cc.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	return prog
}

func TestDifferentialUnseededCompilerMatchesReference(t *testing.T) {
	for _, src := range diffPrograms {
		prog := analyzeT(t, src)
		ref := interp.Run(prog, interp.Config{})
		if !ref.Defined() {
			t.Fatalf("reference finds UB/limit in supposedly clean program:\n%s\nUB=%v Limit=%v", src, ref.UB, ref.Limit)
		}
		for _, opt := range OptLevels {
			c := &Compiler{Opt: opt, Seeded: false, Coverage: NewCoverage()}
			ro := c.Run(prog, ExecConfig{})
			if !ro.Compile.Ok() {
				t.Errorf("-O%d: compile failed: crash=%v timeout=%v err=%v\n%s",
					opt, ro.Compile.Crash, ro.Compile.Timeout, ro.Compile.Err, src)
				continue
			}
			ex := ro.Exec
			if ref.Aborted != ex.Aborted {
				t.Errorf("-O%d: abort mismatch\n%s", opt, src)
				continue
			}
			if !ex.Ok() && !ex.Aborted {
				t.Errorf("-O%d: executable trapped: %q timeout=%v\n%s", opt, ex.Trap, ex.Timeout, src)
				continue
			}
			if ex.Exit != ref.Exit || ex.Output != ref.Output {
				t.Errorf("-O%d: exit/output mismatch: got (%d, %q), want (%d, %q)\n%s",
					opt, ex.Exit, ex.Output, ref.Exit, ref.Output, src)
			}
		}
	}
}

func TestIRStructure(t *testing.T) {
	prog := analyzeT(t, `int main() { int a = 1; if (a) a = 2; return a; }`)
	irp, err := Lower(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := irp.Funcs["main"]
	if f == nil {
		t.Fatal("no main")
	}
	if f.Entry == nil || len(f.Blocks) < 3 {
		t.Errorf("blocks = %d, want >= 3 (entry/then/join)", len(f.Blocks))
	}
	s := f.String()
	if !strings.Contains(s, "br ") {
		t.Errorf("missing branch in IR:\n%s", s)
	}
}

func TestOptimizationActuallyOptimizes(t *testing.T) {
	// constant folding + propagation must shrink `return 2+3*4` to a
	// single constant return at -O2
	prog := analyzeT(t, `int main() { int a = 2, b = 3, c = 4; return a + b * c; }`)
	count := func(opt int) int {
		c := &Compiler{Opt: opt}
		out := c.Compile(prog)
		if !out.Ok() {
			t.Fatalf("-O%d failed: %+v", opt, out)
		}
		n := 0
		for _, b := range out.Program.Funcs["main"].Blocks {
			n += len(b.Instrs)
		}
		return n
	}
	n0, n2 := count(0), count(2)
	if n2 >= n0 {
		t.Errorf("-O2 (%d instrs) not smaller than -O0 (%d instrs)", n2, n0)
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	prog := analyzeT(t, `int main() { int s = 0, i; for (i = 0; i < 4; i++) s += i; return s; }`)
	irp, err := Lower(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := irp.Funcs["main"]
	c := analyzeCFG(f)
	// the entry dominates everything
	for _, b := range c.order {
		if !c.dominates(f.Entry, b) {
			t.Errorf("entry does not dominate b%d", b.ID)
		}
	}
	loops := c.naturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if n := bodySize(f, loops[0]); n < 2 {
		t.Errorf("loop body too small: %d", n)
	}
}

func TestCoverageRecording(t *testing.T) {
	prog := analyzeT(t, `int main() { int s = 0, i; for (i = 0; i < 4; i++) s += i; return s; }`)
	cov := NewCoverage()
	c := &Compiler{Opt: 3, Coverage: cov}
	ro := c.Run(prog, ExecConfig{})
	if !ro.Compile.Ok() || !ro.Exec.Ok() {
		t.Fatalf("run failed: %+v", ro)
	}
	if cov.LineCoverage() <= 0 || cov.LineCoverage() > 1 {
		t.Errorf("line coverage = %v", cov.LineCoverage())
	}
	if cov.FunctionCoverage() <= 0.4 {
		t.Errorf("function coverage = %v, expected most components touched", cov.FunctionCoverage())
	}
	// -O0 coverage must be strictly lower than -O3
	cov0 := NewCoverage()
	(&Compiler{Opt: 0, Coverage: cov0}).Run(prog, ExecConfig{})
	if cov0.LineCoverage() >= cov.LineCoverage() {
		t.Errorf("-O0 coverage %v >= -O3 coverage %v", cov0.LineCoverage(), cov.LineCoverage())
	}
}

func TestCoverageUnregisteredSitePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unregistered site did not panic")
		}
	}()
	NewCoverage().Hit("nonexistent.site")
}

func TestBugRegistryValid(t *testing.T) {
	if err := CheckRegistry(); err != nil {
		t.Fatal(err)
	}
	// hooks referenced in code must exist in the registry: spot checks
	for _, hook := range []string{
		"fold-ternary-equal-operands", "alias-store-forward",
		"dce-dead-store-call", "licm-hoist-conditional", "vm-uchar-wrap",
	} {
		found := false
		for _, b := range Registry() {
			if b.Hook == hook {
				found = true
			}
		}
		if !found {
			t.Errorf("hook %q not in registry", hook)
		}
	}
}

func TestBugsForVersionSelection(t *testing.T) {
	// trunk at -O3 has the most active bugs
	trunk := BugsFor(len(Versions)-1, 3)
	old := BugsFor(0, 0)
	nTrunk, nOld := len(trunk.active), len(old.active)
	if nTrunk <= nOld {
		t.Errorf("trunk -O3 active bugs (%d) <= 4.8 -O0 (%d)", nTrunk, nOld)
	}
	// a bug fixed in 5.3 is inactive from 5.3 on
	for _, b := range Registry() {
		if b.FixedIn < 0 {
			continue
		}
		s := BugsFor(b.FixedIn, 3)
		if s.Active(b.Hook) {
			t.Errorf("bug %s active in version where it is fixed", b.ID)
		}
	}
}

// --- seeded bug triggering ---

func TestSeededFoldTernaryCrash(t *testing.T) {
	// paper Figure 3 / bug 69801: identical second and third operands of a
	// conditional inside a member access
	src := `
struct s { int c; };
struct s a, b, c;
int d; int e;
int main() { e ? (d == 0 ? b : c).c : (d == 0 ? b : c).c; return 0; }`
	prog := analyzeT(t, src)
	c := &Compiler{Version: "trunk", Opt: 0, Seeded: true}
	out := c.Compile(prog)
	if out.Crash == nil {
		t.Fatal("seeded fold-ternary bug did not crash")
	}
	if out.Crash.BugID != "69801" {
		t.Errorf("crash bug = %s, want 69801", out.Crash.BugID)
	}
	if !strings.Contains(out.Crash.Signature, "operand_equal_p") {
		t.Errorf("signature = %q", out.Crash.Signature)
	}
	// the non-matching variant (paper's original line 7) must not crash
	srcOK := strings.Replace(src, "e ? (d == 0 ? b : c).c : (d == 0 ? b : c).c",
		"e ? (e == 0 ? b : c).c : (d == 0 ? b : c).c", 1)
	out = c.Compile(analyzeT(t, srcOK))
	if out.Crash != nil {
		t.Errorf("non-equal operands crashed: %v", out.Crash)
	}
}

func TestSeededAliasStoreForwardWrongCode(t *testing.T) {
	// paper Figure 2 / bug 69951: store forwarded across a may-alias store
	src := `
int a = 0;
int main() {
    int *p = &a, *q = &a;
    a = 0;
    *p = 1;
    *q = 2;
    return a;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	if !ref.Defined() || ref.Exit != 2 {
		t.Fatalf("reference: %+v", ref)
	}
	buggy := &Compiler{Version: "trunk", Opt: 2, Seeded: true}
	ro := buggy.Run(prog, ExecConfig{})
	if !ro.Compile.Ok() {
		t.Fatalf("compile: %+v", ro.Compile)
	}
	if ro.Exec.Exit == ref.Exit {
		t.Errorf("seeded alias bug not triggered: exit %d", ro.Exec.Exit)
	}
	// correct compiler agrees with the reference
	good := &Compiler{Opt: 2, Seeded: false}
	ro2 := good.Run(prog, ExecConfig{})
	if ro2.Exec.Exit != ref.Exit {
		t.Errorf("unseeded compiler wrong: exit %d, want %d", ro2.Exec.Exit, ref.Exit)
	}
}

func TestSeededDeadStoreCallWrongCode(t *testing.T) {
	// model of Clang 26994: a store before a call eliminated although the
	// callee observes it
	src := `
int g = 0;
int sum = 0;
void observe() { sum += g; }
int main() {
    g = 1;
    observe();
    g = 2;
    observe();
    return sum;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	if ref.Exit != 3 {
		t.Fatalf("reference exit = %d, want 3", ref.Exit)
	}
	buggy := &Compiler{Version: "trunk", Opt: 1, Seeded: true}
	ro := buggy.Run(prog, ExecConfig{})
	if !ro.Compile.Ok() {
		t.Fatalf("compile: %+v", ro.Compile)
	}
	if ro.Exec.Exit == ref.Exit {
		t.Errorf("seeded dead-store bug not triggered")
	}
	good := &Compiler{Opt: 1}
	if got := good.Run(prog, ExecConfig{}).Exec.Exit; got != ref.Exit {
		t.Errorf("unseeded compiler wrong: %d", got)
	}
}

func TestSeededConstfoldSubSelfWrongCode(t *testing.T) {
	// paper Figure 1 P2: a = b - b with constant-propagated b
	src := `
int main() {
    int a, b = 1;
    a = b - b;
    if (a)
        a = 5;
    else
        a = 0;
    return a;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	if ref.Exit != 0 {
		t.Fatalf("reference exit = %d", ref.Exit)
	}
	buggy := &Compiler{Version: "trunk", Opt: 2, Seeded: true}
	ro := buggy.Run(prog, ExecConfig{})
	if !ro.Compile.Ok() {
		t.Fatalf("compile: %+v", ro.Compile)
	}
	if ro.Exec.Exit == ref.Exit {
		t.Errorf("seeded constfold-sub-self not triggered (exit %d)", ro.Exec.Exit)
	}
}

func TestSeededLicmHoistTrap(t *testing.T) {
	// division guarded inside the loop gets hoisted by the buggy LICM and
	// traps when the guard is never true
	src := `
int main() {
    int z = 0;
    int s = 0;
    int i;
    for (i = 0; i < 4; i++) {
        if (i > 100) {
            s = s + 10 / z;
        }
        s = s + i;
    }
    return s;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	if !ref.Defined() || ref.Exit != 6 {
		t.Fatalf("reference: %+v", ref)
	}
	good := &Compiler{Opt: 3}
	if ro := good.Run(prog, ExecConfig{}); !ro.Exec.Ok() || ro.Exec.Exit != 6 {
		t.Fatalf("unseeded -O3 wrong: %+v", ro.Exec)
	}
	buggy := &Compiler{Version: "trunk", Opt: 3, Seeded: true}
	ro := buggy.Run(prog, ExecConfig{})
	if ro.Compile.Ok() && ro.Exec.Ok() && ro.Exec.Exit == 6 {
		t.Errorf("seeded licm bug not triggered")
	}
}

func TestSeededUCharWrap(t *testing.T) {
	src := `
int main() {
    unsigned char c = 200;
    c = c + 100;
    return c == 44;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	if ref.Exit != 1 {
		t.Fatalf("reference exit = %d", ref.Exit)
	}
	buggy := &Compiler{Version: "trunk", Opt: 0, Seeded: true}
	ro := buggy.Run(prog, ExecConfig{})
	if ro.Exec.Exit == 1 {
		t.Errorf("seeded uchar-wrap not triggered")
	}
}

func TestSeededBugsFixedInLaterVersions(t *testing.T) {
	// frontend-char-shift crashes in 4.8 but is fixed in 5.3
	src := `int main() { char c = 1; int r = c << 2; return r; }`
	prog := analyzeT(t, src)
	old := &Compiler{Version: "4.8", Opt: 0, Seeded: true}
	if out := old.Compile(prog); out.Crash == nil {
		t.Error("char-shift bug not triggered in 4.8")
	}
	newer := &Compiler{Version: "5.3", Opt: 0, Seeded: true}
	if out := newer.Compile(prog); out.Crash != nil {
		t.Errorf("char-shift bug still present in 5.3: %v", out.Crash)
	}
}

func TestTimeoutPerformanceBug(t *testing.T) {
	// a long block of foldable constant arithmetic blows the compile-time
	// budget when the performance bug is seeded
	var sb strings.Builder
	sb.WriteString("int main() { int x = 0;\n")
	for i := 0; i < 60; i++ {
		sb.WriteString("x = x + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8;\n")
	}
	sb.WriteString("return x > 0; }")
	prog := analyzeT(t, sb.String())
	buggy := &Compiler{Version: "trunk", Opt: 2, Seeded: true, WorkBudget: 200_000}
	out := buggy.Compile(prog)
	if out.Timeout == nil && out.Crash == nil {
		t.Errorf("performance bug not triggered")
	}
	good := &Compiler{Opt: 2, WorkBudget: 200_000}
	if out := good.Compile(prog); !out.Ok() {
		t.Errorf("unseeded compiler timed out: %+v", out)
	}
}
