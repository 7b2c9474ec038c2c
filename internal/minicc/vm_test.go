package minicc

import (
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// runVM compiles at the given level with no seeded bugs and executes.
func runVM(t *testing.T, src string, opt int) *ExecResult {
	t.Helper()
	prog := analyzeT(t, src)
	c := &Compiler{Opt: opt}
	ro := c.Run(prog, ExecConfig{})
	if !ro.Compile.Ok() {
		t.Fatalf("compile failed: %+v", ro.Compile)
	}
	return ro.Exec
}

func TestVMTrapsOnNullDeref(t *testing.T) {
	// the binary of a UB program does whatever the hardware does: here a
	// segfault analogue (never fed real inputs by the harness, which
	// filters UB, but the VM must stay total)
	ex := runVM(t, `int main() { int *p = 0; return *p; }`, 0)
	if ex.Trap == "" {
		t.Errorf("null deref did not trap: %+v", ex)
	}
	if !strings.Contains(ex.Trap, "segmentation fault") {
		t.Errorf("trap = %q", ex.Trap)
	}
}

func TestVMTrapsOnDivByZero(t *testing.T) {
	ex := runVM(t, `int main() { int z = 0; return 5 / z; }`, 0)
	if !strings.Contains(ex.Trap, "SIGFPE") {
		t.Errorf("trap = %q", ex.Trap)
	}
}

func TestVMSignedOverflowWraps(t *testing.T) {
	// unlike the reference interpreter (which flags UB), the binary wraps
	ex := runVM(t, `
int main() {
    int x = 2147483647;
    x = x + 1;
    return x == -2147483648;
}`, 0)
	if !ex.Ok() || ex.Exit != 1 {
		t.Errorf("overflow did not wrap: %+v", ex)
	}
}

func TestVMOversizedShiftMasksLikeHardware(t *testing.T) {
	ex := runVM(t, `
int main() {
    int x = 1;
    int n = 33;
    return x << n;
}`, 0)
	// UB in C; the VM defines it as a 64-bit shift truncated to the result
	// width: 1 << 33 overflows int and truncates to 0. The point is
	// totality and determinism, not matching any particular ISA.
	if !ex.Ok() || ex.Exit != 0 || ex.Trap != "" {
		t.Errorf("shift = %+v", ex)
	}
}

func TestVMStepBudget(t *testing.T) {
	prog := analyzeT(t, `int main() { for (;;) ; return 0; }`)
	c := &Compiler{Opt: 0}
	ro := c.Run(prog, ExecConfig{MaxSteps: 5000})
	if !ro.Exec.Timeout {
		t.Errorf("infinite loop not stopped: %+v", ro.Exec)
	}
	// the empty-body loop optimizes to an empty self-loop at -O2; the
	// per-block tick must still stop it
	c2 := &Compiler{Opt: 2}
	ro2 := c2.Run(prog, ExecConfig{MaxSteps: 5000})
	if !ro2.Exec.Timeout {
		t.Errorf("-O2 empty loop not stopped: %+v", ro2.Exec)
	}
}

func TestVMStackOverflow(t *testing.T) {
	prog := analyzeT(t, `
int f(int n) { return f(n + 1); }
int main() { return f(0); }`)
	c := &Compiler{Opt: 0}
	ro := c.Run(prog, ExecConfig{MaxDepth: 50})
	if !strings.Contains(ro.Exec.Trap, "stack overflow") {
		t.Errorf("trap = %q", ro.Exec.Trap)
	}
}

func TestVMGlobalInitializers(t *testing.T) {
	ex := runVM(t, `
int a = 5;
int b = -3;
long l = 10l;
double d = 1.5;
char c = 'x';
unsigned u = 7u;
int arr[3] = {1, 2, 3};
struct s { int p; int q; };
struct s v = {8, 9};
int main() {
    int total = a + b + (int)l + (int)d + (c == 'x') + (int)u;
    total += arr[0] + arr[2] + v.p + v.q;
    return total;
}`, 0)
	// 5 - 3 + 10 + 1 + 1 + 7 + 1 + 3 + 8 + 9 = 42
	if !ex.Ok() || ex.Exit != 42 {
		t.Errorf("globals: %+v", ex)
	}
}

func TestVMAddressConstantGlobalInit(t *testing.T) {
	ex := runVM(t, `
int target = 9;
int *p = &target;
int arr[2] = {4, 5};
int *q = arr;
int main() { return *p + *q; }`, 0)
	if !ex.Ok() || ex.Exit != 13 {
		t.Errorf("address-constant init: %+v", ex)
	}
}

func TestVMOutputMatchesInterpreterAcrossFormats(t *testing.T) {
	src := `
int main() {
    printf("%d|%u|%x|%c|%s|%05d|%.2f|%g\n", -7, 7u, 254, 90, "zz", 3, 1.5, 0.25);
    return 0;
}`
	prog := analyzeT(t, src)
	ref := interp.Run(prog, interp.Config{})
	for _, opt := range OptLevels {
		c := &Compiler{Opt: opt}
		ro := c.Run(prog, ExecConfig{})
		if ro.Exec.Output != ref.Output {
			t.Errorf("-O%d: output %q, want %q", opt, ro.Exec.Output, ref.Output)
		}
	}
}

func TestVMExitAndAbort(t *testing.T) {
	ex := runVM(t, `int main() { exit(9); return 1; }`, 0)
	if !ex.Ok() || ex.Exit != 9 {
		t.Errorf("exit: %+v", ex)
	}
	ex = runVM(t, `int main() { abort(); return 1; }`, 0)
	if !ex.Aborted {
		t.Errorf("abort: %+v", ex)
	}
}

func TestVMExitCodeTruncation(t *testing.T) {
	// exit codes are a single byte, as in POSIX
	ex := runVM(t, `int main() { return 256 + 7; }`, 0)
	if ex.Exit != 7 {
		t.Errorf("exit = %d, want 7", ex.Exit)
	}
}

// TestCacheReleasesRunawaySlab runs a program whose every call allocates
// a slab object until the step budget, then a small program, through one
// Cache: the pooled slab must shrink back within maxPooledObjects.
func TestCacheReleasesRunawaySlab(t *testing.T) {
	ca := NewCache()
	c := &Compiler{}
	runaway := cc.MustAnalyze(`
int f() { int x = 1; int *p = &x; return *p; }
int main() { int s = 0; for (;;) s += f(); return s; }`)
	if _, err := c.RunCached(ca, runaway, nil, ExecConfig{MaxSteps: 2_000_000}, false); err != nil {
		t.Fatal(err)
	}
	if n := len(ca.exec.objs); n <= maxPooledObjects {
		t.Fatalf("the runaway run allocated %d slab objects, want more than %d", n, maxPooledObjects)
	}
	if _, err := c.RunCached(ca, cc.MustAnalyze(`int main() { return 0; }`), nil, ExecConfig{}, false); err != nil {
		t.Fatal(err)
	}
	if n := cap(ca.exec.objs); n > maxPooledObjects {
		t.Errorf("after a small run the slab holds room for %d objects, want at most %d", n, maxPooledObjects)
	}
}
