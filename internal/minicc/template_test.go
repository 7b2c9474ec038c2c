package minicc_test

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/minicc"
	"spe/internal/partition"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// runBoth compiles and executes one variant through the plain pipeline and
// the template-cached one (with the paranoid fresh-lowering cross-check
// enabled) and requires identical outcomes, including coverage.
func runBoth(t *testing.T, c *minicc.Compiler, ca *minicc.Cache, prog *cc.Program, holes []*cc.Ident, label string) {
	t.Helper()
	plainCov := minicc.NewCoverage()
	cachedCov := minicc.NewCoverage()

	plain := &minicc.Compiler{Version: c.Version, Opt: c.Opt, Seeded: c.Seeded, Coverage: plainCov}
	want := plain.Run(prog, minicc.ExecConfig{MaxSteps: 60_000})

	cached := &minicc.Compiler{Version: c.Version, Opt: c.Opt, Seeded: c.Seeded, Coverage: cachedCov}
	got, err := cached.RunCached(ca, prog, holes, minicc.ExecConfig{MaxSteps: 60_000}, true)
	if err != nil {
		t.Fatalf("%s: paranoid cross-check failed: %v", label, err)
	}

	if err := sameOutcome(got, want); err != nil {
		t.Fatalf("%s: cached outcome diverges: %v", label, err)
	}
	for _, site := range minicc.Sites() {
		if g, w := cachedCov.SiteCount(site), plainCov.SiteCount(site); g != w {
			t.Fatalf("%s: coverage site %s: cached %d hits, plain %d", label, site, g, w)
		}
	}
}

func sameOutcome(got, want *minicc.RunOutcome) error {
	g, w := got.Compile, want.Compile
	if (g.Crash == nil) != (w.Crash == nil) {
		return fmt.Errorf("crash %v, want %v", g.Crash, w.Crash)
	}
	if g.Crash != nil && (g.Crash.Signature != w.Crash.Signature || g.Crash.BugID != w.Crash.BugID) {
		return fmt.Errorf("crash %v, want %v", g.Crash, w.Crash)
	}
	if (g.Timeout == nil) != (w.Timeout == nil) {
		return fmt.Errorf("timeout %v, want %v", g.Timeout, w.Timeout)
	}
	if (g.Err == nil) != (w.Err == nil) {
		return fmt.Errorf("err %v, want %v", g.Err, w.Err)
	}
	if (got.Exec == nil) != (want.Exec == nil) {
		return fmt.Errorf("exec %v, want %v", got.Exec, want.Exec)
	}
	if got.Exec != nil {
		ge, we := got.Exec, want.Exec
		if ge.Exit != we.Exit || ge.Output != we.Output || ge.Trap != we.Trap ||
			ge.Timeout != we.Timeout || ge.Aborted != we.Aborted || ge.Steps != we.Steps {
			return fmt.Errorf("exec %+v, want %+v", ge, we)
		}
	}
	return nil
}

// sweepSkeleton runs every filling of a skeleton through every compiler
// configuration, cached vs plain.
func sweepSkeleton(t *testing.T, src string, maxFills int64) {
	t.Helper()
	sk := skeleton.MustBuild(src)
	space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
	if err != nil {
		t.Fatal(err)
	}
	in := sk.NewInstance()
	ca := minicc.NewCache()
	total := space.Total()
	idx := new(big.Int)
	for j := int64(0); j < maxFills; j++ {
		idx.SetInt64(j)
		if idx.Cmp(total) >= 0 {
			break
		}
		fill, err := space.FillAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Instantiate(fill); err != nil {
			t.Fatal(err)
		}
		for _, ver := range []string{"4.8", "trunk"} {
			for _, opt := range minicc.OptLevels {
				c := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true}
				runBoth(t, c, ca, in.Program(), in.HoleIdents(),
					fmt.Sprintf("fill %d %s -O%d", j, ver, opt))
			}
		}
	}
}

// TestTemplateEquivalenceBasic sweeps a register-heavy skeleton: every hole
// is a promoted scalar, so the cached path exercises pure operand patching.
func TestTemplateEquivalenceBasic(t *testing.T) {
	sweepSkeleton(t, `
int main() {
    int a = 3, b = 5, c = 0;
    c = a + b * 2;
    if (c > a) c = c - b;
    for (a = 0; a < 4; a++) c += a;
    printf("%d\n", c);
    return c;
}
`, 200)
}

// TestTemplateEquivalenceCrashConditions sweeps a skeleton whose fillings
// flip the equal-operand ternary trigger (bug 69801 fires exactly when both
// arms rebind to the same variable): the replayed crash closures must track
// the live AST, per fill and per version.
func TestTemplateEquivalenceCrashConditions(t *testing.T) {
	sweepSkeleton(t, `
int main() {
    int a = 1, b = 2;
    int r = a ? a : b;
    return r + b;
}
`, 200)
}

// TestTemplateEquivalenceMemoryHoles sweeps a skeleton whose holes rebind
// across globals and statics (memory-resident on every path), exercising
// the OpAddrVar symbol patching.
func TestTemplateEquivalenceMemoryHoles(t *testing.T) {
	sweepSkeleton(t, `
int g = 2, h = 7;
int main() {
    g = g + h;
    h = g - h;
    printf("%d %d\n", g, h);
    return g;
}
`, 200)
}

// TestTemplateEquivalenceAddrTakenFallback sweeps a skeleton with holes
// under '&' (volatile: refilling moves the address-taken set): each symbol
// under '&' is its own shape class with its own template, and every
// variant must still agree everywhere.
func TestTemplateEquivalenceAddrTakenFallback(t *testing.T) {
	sweepSkeleton(t, `
int main() {
    int a = 1, b = 2, c = 3;
    int *p = &a;
    *p = b + c;
    c = a + *p;
    return c;
}
`, 200)
}

// TestTemplateEquivalenceMixedShapes sweeps a skeleton where hole groups
// mix register-promoted locals with an address-taken (memory) local of the
// same type, so fillings move holes between register and memory shape and
// the cache builds a template per shape class.
func TestTemplateEquivalenceMixedShapes(t *testing.T) {
	sweepSkeleton(t, `
int main() {
    int a = 1, b = 2, m = 3;
    int *p = &m;
    b = a + m;
    a = b * m;
    return a + b + *p;
}
`, 300)
}

// rebind refills the holes of in given by index with the variables of the
// given names; every other hole keeps its current variable.
func rebind(t *testing.T, sk *skeleton.Skeleton, in *skeleton.Instance, to map[int]string) {
	t.Helper()
	fill := in.Fill()
	for hi, name := range to {
		found := false
		for _, gi := range sk.Holes[hi].Allowed {
			for si, sym := range sk.Groups[gi].Syms {
				if sym.Name == name {
					fill[hi], found = partition.VarRef{Group: gi, Index: si}, true
				}
			}
		}
		if !found {
			t.Fatalf("hole %d admits no variable %q", hi, name)
		}
	}
	if err := in.Instantiate(fill); err != nil {
		t.Fatal(err)
	}
}

// TestTemplateShapeClassesAndBack moves one skeleton's fills through three
// shape classes and back to the first, each fill under two versions and
// every -O level. Each class builds exactly one template, the return
// replays the first class's template with no build and no fresh lowering,
// and every outcome and coverage count equals the plain pipeline's
// (runBoth, which also cross-checks each patched lowering against a fresh
// one).
func TestTemplateShapeClassesAndBack(t *testing.T) {
	sk := skeleton.MustBuild(`
int g = 7;
int main() {
    int a = 1, b = 2, c = 3;
    int *p = &a;
    b = b + c;
    c = b * 2;
    printf("%d %d\n", b + *p, c);
    return 0;
}
`)
	// hole 0 is the a under '&'; hole 2 is the b read in b + c
	steps := []struct {
		name   string
		to     map[int]string
		builds int64
	}{
		{"registers", nil, 1},                           // every hole but hole 0 reads a register
		{"memory", map[int]string{2: "g"}, 2},           // hole 2 moves register -> memory
		{"volatile", map[int]string{0: "g", 2: "b"}, 3}, // &g: a is promoted, g's address is taken
		{"back", map[int]string{0: "a", 2: "c"}, 3},     // the first class, hole 2 patched to c
	}
	in := sk.NewInstance()
	ca := minicc.NewCache()
	for _, st := range steps {
		rebind(t, sk, in, st.to)
		before := ca.Stats()
		for _, ver := range []string{"4.8", "trunk"} {
			for _, opt := range minicc.OptLevels {
				c := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true}
				runBoth(t, c, ca, in.Program(), in.HoleIdents(), fmt.Sprintf("%s %s -O%d", st.name, ver, opt))
			}
		}
		d := ca.Stats().Sub(before)
		if got := ca.Stats().TemplateBuilds; got != st.builds {
			t.Errorf("%s: %d templates built so far, want %d", st.name, got, st.builds)
		}
		if d.FreshLowerings != 0 || d.Replays != 2*int64(len(minicc.OptLevels)) {
			t.Errorf("%s: %d fresh lowerings and %d replays, want every compilation replayed", st.name, d.FreshLowerings, d.Replays)
		}
	}
}

// TestTemplateClassCap refills one '&' hole with more variables than the
// class cap allows: each variable under '&' is its own shape class. The
// program keeps MaxClassTemplates templates, the classes past the cap lower
// fresh, the first class still replays afterwards, and every outcome
// agrees with the plain pipeline's.
func TestTemplateClassCap(t *testing.T) {
	var src strings.Builder
	src.WriteString("int main() {\n    int v0 = 0")
	n := minicc.MaxClassTemplates + 4
	for i := 1; i < n; i++ {
		fmt.Fprintf(&src, ", v%d = %d", i, i)
	}
	src.WriteString(";\n    int *p = &v0;\n    *p = *p + v1;\n    return *p + v2;\n}\n")
	sk := skeleton.MustBuild(src.String())
	in := sk.NewInstance()
	ca := minicc.NewCache()
	c := &minicc.Compiler{Version: "trunk", Opt: 2, Seeded: true}
	for i := 0; i < n; i++ {
		rebind(t, sk, in, map[int]string{0: fmt.Sprintf("v%d", i)})
		runBoth(t, c, ca, in.Program(), in.HoleIdents(), fmt.Sprintf("&v%d", i))
	}
	st := ca.Stats()
	if st.TemplateBuilds != minicc.MaxClassTemplates || st.FreshLowerings != int64(n-minicc.MaxClassTemplates) {
		t.Fatalf("%d templates built and %d fresh lowerings over %d classes, want %d and %d",
			st.TemplateBuilds, st.FreshLowerings, n, minicc.MaxClassTemplates, n-minicc.MaxClassTemplates)
	}
	rebind(t, sk, in, map[int]string{0: "v0"})
	runBoth(t, c, ca, in.Program(), in.HoleIdents(), "&v0 again")
	if d := ca.Stats().Sub(st); d.Replays != 1 || d.TemplateBuilds != 0 {
		t.Errorf("the first class again: %+v, want one replay and no build", d)
	}
}

// TestTemplateUnsupportedLowersFresh pins the structural-failure path: a
// program whose lowering fails makes one build attempt and no more, every
// compilation lowers fresh, and each fails as the plain pipeline does.
func TestTemplateUnsupportedLowersFresh(t *testing.T) {
	sk := skeleton.MustBuild(`
int main() {
    int a = 1, b = 2;
    a = a + b;
    break;
    return a;
}
`)
	in := sk.NewInstance()
	ca := minicc.NewCache()
	c := &minicc.Compiler{Version: "trunk", Opt: 1, Seeded: true}
	for _, to := range []map[int]string{nil, {1: "b"}} {
		rebind(t, sk, in, to)
		runBoth(t, c, ca, in.Program(), in.HoleIdents(), fmt.Sprintf("fill %v", to))
	}
	if st := ca.Stats(); st.TemplateBuilds != 1 || st.FreshLowerings != 2 || st.Replays != 0 {
		t.Errorf("%+v, want one build attempt and two fresh lowerings", st)
	}
}

// TestTemplateEquivalenceGotoLoops covers the sticky goto-irreducibility
// trigger plus label-heavy control flow.
func TestTemplateEquivalenceGotoLoops(t *testing.T) {
	sweepSkeleton(t, `
int main() {
    int i = 0, n = 5;
  top:
    while (i < n) {
        i++;
        if (i == 3) goto top;
    }
    return i;
}
`, 100)
}

// TestCacheScratchOwnership pins the documented outcome lifetime: two
// RunCached calls on one cache reuse the scratch clone, so outcomes must be
// consumed before the next call (the test just asserts results stay correct
// across many interleaved calls on the same cache).
func TestCacheScratchOwnership(t *testing.T) {
	sk := skeleton.MustBuild(`
int main() {
    int a = 2, b = 3;
    return a * b + a;
}
`)
	in := sk.NewInstance()
	ca := minicc.NewCache()
	for round := 0; round < 5; round++ {
		for _, opt := range minicc.OptLevels {
			c := &minicc.Compiler{Version: "trunk", Opt: opt, Seeded: true}
			ro, err := c.RunCached(ca, in.Program(), in.HoleIdents(), minicc.ExecConfig{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if !ro.Compile.Ok() || ro.Exec.Exit != 8 {
				t.Fatalf("round %d -O%d: %+v", round, opt, ro)
			}
		}
	}
}
