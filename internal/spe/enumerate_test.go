package spe

import (
	"math/big"
	"strings"
	"testing"

	"spe/internal/skeleton"
)

const motivating = `
int a, b;
int main() {
    b = b - a;
    if (a)
        a = a - b;
    return 0;
}
`

func TestCountModes(t *testing.T) {
	sk := skeleton.MustBuild(motivating)
	// 7 use holes over one group {a,b} of size 2 (both uninitialized
	// ints) give 2^7 = 128 fillings; the paper's naive baseline also
	// enumerates the two declaration holes (x2 each): 128 * 4 = 512.
	// Canonical quotients everything to 1 + {7 2} = 64.
	naive := Count(sk, Options{Mode: ModeNaive, Granularity: Inter})
	if naive.Cmp(big.NewInt(512)) != 0 {
		t.Errorf("naive = %s, want 512", naive)
	}
	canon := Count(sk, Options{Mode: ModeCanonical, Granularity: Inter})
	if canon.Cmp(big.NewInt(64)) != 0 {
		t.Errorf("canonical = %s, want 64", canon)
	}
	// scope-free: paper arithmetic agrees with canonical
	paper := Count(sk, Options{Mode: ModePaper, Granularity: Inter})
	if paper.Cmp(canon) != 0 {
		t.Errorf("paper = %s, want %s", paper, canon)
	}
}

func TestEnumerateCanonicalDistinctAndComplete(t *testing.T) {
	sk := skeleton.MustBuild(motivating)
	opts := Options{Mode: ModeCanonical, Granularity: Inter}
	seen := make(map[string]bool)
	n, err := Enumerate(sk, opts, func(v Variant) bool {
		if seen[v.Source] {
			t.Errorf("duplicate variant source at index %d", v.Index)
		}
		seen[v.Source] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Errorf("enumerated %d variants, want 64", n)
	}
	// every variant is a valid program
	for src := range seen {
		skeleton.MustBuild(src)
	}
}

func TestEnumerateNaiveCoversCanonical(t *testing.T) {
	sk := skeleton.MustBuild(motivating)
	canonical := make(map[string]bool)
	_, err := Enumerate(sk, Options{Mode: ModeCanonical, Granularity: Inter}, func(v Variant) bool {
		canonical[v.Source] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	naiveTotal := 0
	_, err = Enumerate(sk, Options{Mode: ModeNaive, Granularity: Inter}, func(v Variant) bool {
		naiveTotal++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if naiveTotal != 128 {
		t.Errorf("naive total = %d, want 128", naiveTotal)
	}
	if len(canonical) != 64 {
		t.Errorf("canonical distinct = %d, want 64", len(canonical))
	}
}

func TestEnumerateIntraCartesianProduct(t *testing.T) {
	src := `
int f() { int x, y; x = y; return x; }
int g() { int p, q; p = q; return p; }
int main() { return f() + g(); }
`
	sk := skeleton.MustBuild(src)
	// each function: 3 holes over one 2-var group: 1+{3 2} = 4 canonical
	intra := Count(sk, Options{Mode: ModeCanonical, Granularity: Intra})
	if intra.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("intra count = %s, want 16 (= 4 * 4)", intra)
	}
	n, err := Enumerate(sk, Options{Mode: ModeCanonical, Granularity: Intra}, func(v Variant) bool {
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Errorf("enumerated %d, want 16", n)
	}
}

func TestEnumeratePaperModeRejected(t *testing.T) {
	sk := skeleton.MustBuild(motivating)
	if _, err := Enumerate(sk, Options{Mode: ModePaper}, func(Variant) bool { return true }); err == nil {
		t.Error("ModePaper enumeration should return an error")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	sk := skeleton.MustBuild(motivating)
	n, err := Enumerate(sk, Options{Mode: ModeCanonical, Granularity: Inter}, func(v Variant) bool {
		return v.Index < 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("yielded %d, want 5 (stop after index 4)", n)
	}
}

func TestTwoLevelFromProblemFigure7(t *testing.T) {
	sk := skeleton.MustBuild(`
int a, b;
int main() {
    a = b;
    b = a;
    if (1) {
        int c, d;
        c = d;
    }
    a = a;
    return 0;
}
`)
	cfg := TwoLevelFromProblem(sk.Problem())
	if cfg.GlobalVars != 2 || cfg.GlobalHoles != 6 {
		t.Errorf("globals = %d vars / %d holes, want 2/6", cfg.GlobalVars, cfg.GlobalHoles)
	}
	if len(cfg.ScopeVars) != 1 || cfg.ScopeVars[0] != 2 || cfg.ScopeHoles[0] != 2 {
		t.Errorf("scopes = %+v", cfg)
	}
}

func TestEnumerateRealisticVariantShapes(t *testing.T) {
	// Paper Figure 1: enumeration must produce both P2 (a = b - b) and P3
	// (if (b)) shapes from the P1 skeleton.
	sk := skeleton.MustBuild(motivating)
	var all []string
	_, err := Enumerate(sk, Options{Mode: ModeCanonical, Granularity: Inter}, func(v Variant) bool {
		all = append(all, v.Source)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(all, "====")
	for _, want := range []string{"a = b - b", "if (b)", "b = a - a", "a = a - b"} {
		if !strings.Contains(joined, want) {
			t.Errorf("no variant contains %q", want)
		}
	}
}

func TestCountIntraLessOrEqualInter(t *testing.T) {
	srcs := []string{
		motivating,
		"int g;\nint f(int x) { return x + g; }\nint main() { g = f(g); return g; }",
		"int main() { int a, b, c; a = b + c; b = a; return c; }",
	}
	for _, src := range srcs {
		sk := skeleton.MustBuild(src)
		intra := Count(sk, Options{Mode: ModeCanonical, Granularity: Intra})
		inter := Count(sk, Options{Mode: ModeCanonical, Granularity: Inter})
		if intra.Cmp(inter) > 0 {
			t.Errorf("%q: intra %s > inter %s", src[:20], intra, inter)
		}
	}
}
