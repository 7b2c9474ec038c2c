package refvm

import (
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// checkSrc runs one source program through both oracles and fails on any
// verdict divergence (see diff in differential_test.go).
func checkSrc(t *testing.T, src string) *interp.Result {
	t.Helper()
	prog := cc.MustAnalyze(src)
	tree := interp.Run(prog, interp.Config{})
	bc := Run(prog, Config{})
	if err := diff(tree, bc); err != nil {
		t.Errorf("oracle divergence: %v\n--- source ---\n%s", err, src)
	}
	return bc
}

// TestEdgeCases sweeps the semantic corners that distinguish a faithful
// bytecode oracle from a merely plausible one: goto entering loop bodies,
// lazily allocated jumped-over declarations, static locals, printf's
// lazily evaluated arguments, forged pointers, and every UB kind.
func TestEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"goto into loop body", `
int main() {
    int i = 0, n = 0;
    goto mid;
    while (i < 3) {
        n = n + 10;
mid:
        n = n + 1;
        i = i + 1;
    }
    printf("%d %d\n", i, n);
    return 0;
}`},
		{"goto over decl lazy alloc", `
int main() {
    goto skip;
    int x = 5;
skip:
    x = 2;
    printf("%d\n", x);
    return 0;
}`},
		{"goto over decl uninit read", `
int main() {
    goto skip;
    int x = 5;
skip:
    printf("%d\n", x);
    return 0;
}`},
		{"goto backward", `
int main() {
    int i = 0;
top:
    i = i + 1;
    if (i < 3) goto top;
    return i;
}`},
		{"goto into for body", `
int main() {
    int i, n = 0;
    goto in;
    for (i = 0; i < 4; i = i + 1) {
        n = n + 100;
in:
        n = n + 1;
    }
    printf("%d\n", n);
    return 0;
}`},
		{"goto into do-while", `
int main() {
    int i = 0;
    goto in;
    do {
        i = i + 10;
in:
        i = i + 1;
    } while (i < 20);
    return i;
}`},
		{"static local persists", `
int counter() {
    static int n = 0;
    n = n + 1;
    return n;
}
int main() {
    counter(); counter();
    printf("%d\n", counter());
    return 0;
}`},
		{"static zero init", `
int f() { static int a[3]; return a[2]; }
int main() { return f(); }`},
		{"printf surplus args not evaluated", `
int g;
int bump() { g = g + 1; return g; }
int main() {
    printf("no conversions\n", bump(), bump());
    printf("%d\n", g);
    return 0;
}`},
		{"printf missing arg", `
int main() { printf("%d %d\n", 1); return 0; }`},
		{"printf nested", `
int main() {
    printf("a%db", printf("x"));
    return 0;
}`},
		{"printf flags and widths", `
int main() {
    printf("[%5d][%-5d][%05d][%+d][% d]\n", 42, 42, 42, 42, 42);
    printf("[%8.3f][%g][%e]\n", 3.14159, 0.0001, 12345.678);
    printf("[%x][%X][%u][%c][%s]\n", 255, 255, 7, 65, "hi");
    printf("%%literal %q unknown\n");
    return 0;
}`},
		{"printf char of float is zero", `
int main() { printf("%d:%c:", 2.5, 3.5); printf("\n"); return 0; }`},
		{"string literal identity", `
int main() {
    char *a = "dup";
    char *b = "dup";
    printf("%d %d\n", a == b, a == a);
    return 0;
}`},
		{"forged pointers distinct", `
int main() {
    int *p = (int *)5;
    int *q = (int *)5;
    printf("%d %d\n", p == q, p == p);
    return 0;
}`},
		{"forged pointer deref dangles", `
int main() { int *p = (int *)7; return *p; }`},
		{"null deref", `
int main() { int *p = 0; return *p; }`},
		{"dangling after return", `
int *f() { int x = 1; return &x; }
int main() { int *p = f(); return *p; }`},
		{"out of bounds", `
int main() { int a[3]; a[0] = 1; return a[5]; }`},
		{"one past end arithmetic ok", `
int main() { int a[3]; int *p = a + 3; return p == a + 3 ? 0 : 1; }`},
		{"past end arithmetic ub", `
int main() { int a[3]; int *p = a + 4; return 0; }`},
		{"signed overflow add", `
int main() { long x = 9223372036854775807; return (int)(x + 1); }`},
		{"int result not representable", `
int main() { int x = 2147483647; int y = x + x; return y; }`},
		{"div by zero", `
int main() { int z = 0; return 1 / z; }`},
		{"mod int_min", `
int main() { long a = -9223372036854775807 - 1; long b = -1; return (int)(a / b); }`},
		{"shift by width", `
int main() { int s = 32; return 1 << s; }`},
		{"negative shift", `
int main() { int s = -1; return 1 << s; }`},
		{"left shift negative", `
int main() { int v = -1; return v << 1; }`},
		{"uninit read", `
int main() { int x; return x; }`},
		{"missing return value used", `
int f(int x) { if (x) return 1; }
int main() { return f(0); }`},
		{"missing return value unused ok", `
int f(int x) { if (x) return 1; }
int main() { f(0); return 7; }`},
		{"struct copy", `
struct P { int x; int y; };
int main() {
    struct P a, b;
    a.x = 3; a.y = 4;
    b = a;
    printf("%d %d\n", b.x, b.y);
    return 0;
}`},
		{"struct copy uninit field", `
struct P { int x; int y; };
int main() { struct P a, b; a.x = 1; b = a; return 0; }`},
		{"nested aggregates init", `
struct Q { int a; int b[2]; };
int main() {
    struct Q q = {1, {2, 3}};
    int m[2][2] = {{1, 2}, {3}};
    printf("%d %d %d %d %d %d %d\n", q.a, q.b[0], q.b[1], m[0][0], m[0][1], m[1][0], m[1][1]);
    return 0;
}`},
		{"flat nested array init quirk", `
int main() {
    int m[2][2] = {1, 2};
    printf("%d %d %d %d\n", m[0][0], m[0][1], m[1][0], m[1][1]);
    return 0;
}`},
		{"global init order and forward ref", `
int a = 5;
int b = a + 2;
int main() { printf("%d %d\n", a, b); return 0; }`},
		{"global zero fill", `
int g[4];
double d;
int *p;
int main() { printf("%d %g %d\n", g[3], d, p == 0); return 0; }`},
		{"recursion", `
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { printf("%d\n", fib(12)); return 0; }`},
		{"deep recursion limit", `
int f(int n) { return f(n + 1); }
int main() { return f(0); }`},
		{"step budget", `
int main() { int i = 0; while (1) { i = i + 1; } return i; }`},
		{"abort", `
int main() { printf("pre"); abort(); printf("post"); return 0; }`},
		{"exit with code", `
int main() { printf("x"); exit(42); return 0; }`},
		{"exit evaluates only first arg", `
int g;
int bump() { g = g + 1; return g; }
int main() { exit(bump()); }`},
		{"fall off main", `
int main() { printf("done\n"); }`},
		{"comma and side effects", `
int main() {
    int a = 1, b;
    b = (a = a + 1, a * 10);
    printf("%d %d\n", a, b);
    return 0;
}`},
		{"short circuit laziness", `
int g;
int tick() { g = g + 1; return 1; }
int main() {
    int r = 0 && tick();
    r = r + (1 || tick());
    printf("%d %d\n", r, g);
    return 0;
}`},
		{"ternary aggregate arms", `
struct S { int v; };
struct S x, y;
int main() {
    x.v = 10; y.v = 20;
    int k = 1;
    printf("%d\n", (k ? x : y).v);
    return 0;
}`},
		{"compound assign and incdec", `
int main() {
    int a = 5;
    a += 3; a -= 1; a *= 2; a /= 3; a %= 3;
    a = a + (a++) + (++a) + (a--) + (--a);
    unsigned char c = 250;
    c += 10;
    printf("%d %d\n", a, c);
    return 0;
}`},
		{"pointer arithmetic walk", `
int main() {
    int a[5];
    int *p = a;
    int i;
    for (i = 0; i < 5; i = i + 1) { *p = i * i; p = p + 1; }
    printf("%d %d %ld\n", a[4], *(a + 2), p - a);
    return 0;
}`},
		{"pointer comparisons", `
int main() {
    int a[4];
    int *p = a + 1, *q = a + 3;
    printf("%d %d %d\n", p < q, q <= a, p != q);
    return 0;
}`},
		{"unrelated pointer relational ub", `
int main() { int a; int b; return &a < &b; }`},
		{"pointer int conversions", `
int main() {
    int x = 3;
    long addr = (long)&x;
    printf("%d\n", addr != 0);
    return 0;
}`},
		{"float conversions and arith", `
int main() {
    float f = 0.1;
    double d = f + 1;
    int i = d * 10;
    unsigned u = 4000000000u;
    double ud = u;
    printf("%d %g %g\n", i, d, ud);
    return 0;
}`},
		{"float to int overflow", `
int main() { double d = 1e300; int i = d; return i; }`},
		{"float division by zero defined", `
int main() { double z = 0.0; printf("%g %g\n", 1.0 / z, -1.0 / z); return 0; }`},
		{"char short promotions", `
int main() {
    char c = 200;
    short s = 40000;
    unsigned short us = 65535;
    printf("%d %d %d %d\n", c, s, us, c + us);
    return 0;
}`},
		{"unsigned wraparound", `
int main() {
    unsigned int u = 0;
    u = u - 1;
    unsigned long ul = 0;
    ul = ul - 1;
    printf("%u %lu\n", u, ul);
    return 0;
}`},
		{"sizeof", `
struct S { int a; double b; };
int main() {
    int a[10];
    printf("%lu %lu %lu %lu\n", sizeof(int), sizeof(a), sizeof(struct S), sizeof(1 + 1));
    return 0;
}`},
		{"address of array element", `
int main() {
    int a[3];
    a[1] = 9;
    int *p = &a[1];
    printf("%d\n", *p);
    return 0;
}`},
		{"member through pointer", `
struct N { int v; struct N *next; };
int main() {
    struct N a, b;
    a.v = 1; b.v = 2;
    a.next = &b;
    b.next = 0;
    printf("%d\n", a.next->v);
    return 0;
}`},
		{"output after ub is discarded partial printf", `
int main() {
    int x;
    printf("kept");
    printf("lost%d", x);
    return 0;
}`},
		{"while condition steps per iteration", `
int main() {
    int i = 0;
    while (i < 5) i = i + 1;
    do i = i - 1; while (i > 0);
    for (i = 0; i < 3; i = i + 1) ;
    return i;
}`},
		{"call function with no body", `
int mystery();
int main() { return mystery(); }`},
		{"break continue", `
int main() {
    int i, n = 0;
    for (i = 0; i < 10; i = i + 1) {
        if (i == 3) continue;
        if (i == 6) break;
        n = n + i;
    }
    return n;
}`},
		{"empty statements and blocks", `
int main() { ; {} { ; ; } return 3; }`},
		{"unary minus and bitnot", `
int main() {
    int a = 5;
    unsigned char c = 4;
    printf("%d %d %d\n", -a, ~a, ~c);
    return 0;
}`},
		{"negate int_min ub", `
int main() { long m = -9223372036854775807 - 1; return (int)-m; }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSrc(t, tc.src) })
	}
}

// TestResultValues spot-checks absolute outcomes (not just agreement), so
// a bug shared by both oracles cannot hide.
func TestResultValues(t *testing.T) {
	r := checkSrc(t, `
int main() {
    int i, n = 0;
    for (i = 1; i <= 10; i = i + 1) n = n + i;
    printf("sum=%d\n", n);
    return n - 55;
}`)
	if r.Output != "sum=55\n" || r.Exit != 0 || !r.Defined() {
		t.Fatalf("got output %q exit %d defined %v", r.Output, r.Exit, r.Defined())
	}

	r = checkSrc(t, `int main() { int z = 0; return 1 / z; }`)
	if r.UB == nil || r.UB.Kind != interp.UBDivByZero {
		t.Fatalf("want div-by-zero UB, got %v", r.UB)
	}
}

// TestCacheDirtyState pins that pooled VM state never leaks between
// variants or between different programs: a run that allocates objects,
// prints, recurses, and leaves static state behind must not perturb the
// next run's verdict.
func TestCacheDirtyState(t *testing.T) {
	dirty := cc.MustAnalyze(`
int depth(int n) { if (n > 40) return n; return depth(n + 1); }
int counter() { static int c; c = c + 100; return c; }
int g[20];
int main() {
    int i;
    for (i = 0; i < 20; i = i + 1) g[i] = i;
    counter(); counter();
    printf("dirty %d %d\n", depth(0), counter());
    int *p = (int *)1234;
    return 0;
}`)
	clean := cc.MustAnalyze(`
int counter() { static int c; c = c + 1; return c; }
int main() {
    counter();
    printf("clean %d\n", counter());
    int x;
    int *p = &x;
    *p = 3;
    return x;
}`)
	ub := cc.MustAnalyze(`int main() { int x; return x; }`)

	ca := NewCache()
	fresh := func(p *cc.Program) *interp.Result { return Run(p, Config{}) }
	for round := 0; round < 3; round++ {
		for _, p := range []*cc.Program{dirty, clean, ub, clean, dirty} {
			got := ca.Run(p, nil, Config{})
			want := fresh(p)
			if err := diff(want, got); err != nil {
				t.Fatalf("round %d: pooled state leaked: %v", round, err)
			}
		}
	}
}

// TestCacheFallback pins the fresh-compile fallback: a hole rebound to a
// symbol of a different type cannot be patched in place and must still
// produce the tree-walker's verdict via fresh compilation.
func TestCacheFallback(t *testing.T) {
	prog := cc.MustAnalyze(`
int main() {
    int a = 3;
    long b = 4;
    int r = a + 1;
    printf("%d\n", r);
    return 0;
}`)
	// hand-build a "hole" over the use of a in "a + 1" and rebind it to b
	// (a long): the type differs from the compiled int shape
	var use *cc.Ident
	for _, u := range prog.Uses {
		if u.Name == "a" {
			use = u
		}
	}
	if use == nil {
		t.Fatal("no use of a found")
	}
	var bsym *cc.Symbol
	for _, s := range prog.Symbols {
		if s.Name == "b" {
			bsym = s
		}
	}
	holes := []*cc.Ident{use}
	ca := NewCache()
	r1 := ca.Run(prog, holes, Config{})
	if err := diff(interp.Run(prog, interp.Config{}), r1); err != nil {
		t.Fatalf("initial run: %v", err)
	}
	cc.RebindVar(use, bsym)
	r2 := ca.Run(prog, holes, Config{})
	if err := diff(interp.Run(prog, interp.Config{}), r2); err != nil {
		t.Fatalf("fallback run after type-changing rebind: %v", err)
	}
	if strings.Contains(r2.Output, "\x00") {
		t.Fatal("corrupt output")
	}
}

// TestCacheReleasesRunawaySlab runs a loop that allocates a block-local
// object on every iteration until the step limit, then a small program,
// through one Cache: the pooled slab must shrink back within
// maxPooledObjects.
func TestCacheReleasesRunawaySlab(t *testing.T) {
	ca := NewCache()
	runaway := cc.MustAnalyze(`
int a;
int main() { for (;;) { int t = 1; a = t; } return 0; }`)
	if res := ca.Run(runaway, nil, Config{MaxSteps: 1_000_000}); res.Limit == nil {
		t.Fatalf("the runaway run ended without the step limit: %s", resultFields(res))
	}
	if n := len(ca.vm.objs); n <= maxPooledObjects {
		t.Fatalf("the runaway run allocated %d slab objects, want more than %d", n, maxPooledObjects)
	}
	ca.Run(cc.MustAnalyze(`int main() { return 0; }`), nil, Config{})
	if n := cap(ca.vm.objs); n > maxPooledObjects {
		t.Errorf("after a small run the slab holds room for %d objects, want at most %d", n, maxPooledObjects)
	}
}
