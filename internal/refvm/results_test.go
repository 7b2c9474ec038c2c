package refvm

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current oracle")

const goldenPath = "testdata/results.golden"

// loopPrograms are small programs built around loops: loops that never
// exit, whose state either repeats exactly or differs only in int
// counters, and near-misses that read, print, store or allocate on every
// iteration, or that leave the loop.
var loopPrograms = []struct{ name, src string }{
	{"const-state", `
int main() {
    int a = 3, b = 0;
    while (a > 0) {
        b = a;
        a = 3;
    }
    return b;
}`},
	{"seed4-goto", `
int a; int b;
int main() {
    if (b)
        ;
    else {
        int c = 0;
        a = c;
l1:
        c = a + 1;
    }
    if (a < 3) goto l1;
    printf("%d\n", a);
    return 0;
}`},
	{"detached-counter", `
double u[20];
int main() {
    int a, b = 0;
    for (a = 0; b < 20; a++) u[b] = 0.0;
    return a;
}`},
	{"global-counter-in-call", `
int g;
long h;
void tick() { g++; h--; }
int main() {
    int i = 0;
    for (;;) { tick(); i = 1; }
    return i;
}`},
	{"counter-breaks", `
int main() {
    int i = 0;
    for (;;) { i++; if (i == 100000) break; }
    printf("%d\n", i);
    return 0;
}`},
	{"counter-read-through-pointer", `
int main() {
    int a = 0, s = 0;
    int *p = &a;
    while (1) { a++; s = *p > 0; }
    return s;
}`},
	{"counter-read-by-struct-copy", `
struct S { int n; int m; };
struct S x, y;
int main() {
    x.n = 0; x.m = 0;
    while (1) { x.n++; y = x; }
    return y.m;
}`},
	{"counter-read-by-postfix-value", `
int main() {
    int a = 0, x = 0;
    while (1) { x = a++; }
    return x;
}`},
	{"counter-printed", `
int main() {
    int a = 0;
    while (1) { a++; printf("%d\n", a); }
    return 0;
}`},
	{"counter-stored", `
int main() {
    int a = 0, b = 0;
    while (1) { b++; a += 1; }
    return a;
}`},
	{"block-local-per-iteration", `
int main() {
    int a = 0;
    for (;;) { int t = 1; a++; }
    return a;
}`},
	{"counter-overflows", `
double u[20];
int main() {
    int a = 2147383647, b = 0;
    for (;; a++) u[b] = 0.0;
    return 0;
}`},
	{"counter-overflows-mid-period", `
double u[2];
int main() {
    int a = 2147453647, b = 0;
    for (;;) { a++; a++; a--; u[b] = 0.0; }
    return 0;
}`},
	{"long-counter-underflows", `
int main() {
    long a = -9223372036854725807L;
    int b = 0;
    while (b < 1) { a--; b = 0; }
    return b;
}`},
	// reductions of the paper seeds' step-limited variants: a goto loop
	// whose condition reads another variable (file 4), a sum over a
	// loop-invariant pointer (file 13), a do-while with continue and a
	// self-update by a variable fixed at 0 (file 14)
	{"seed4-goto-self-update", `
int a; int b;
int main() {
    if (b)
        ;
    else {
        int c = 0;
        a = c;
l1:
        c = c + 1;
    }
    if (a < 3) goto l1;
    printf("%d\n", a);
    return 0;
}`},
	{"seed13-invariant-sum", `
int main() {
    int arr[6] = {1, 2, 3, 4, 5, 6};
    int *p = arr;
    int *q = &arr[5];
    int s = 0;
    while (p < q) {
        s += *p;
        q = p + 1;
    }
    printf("%d\n", s);
    return s & 63;
}`},
	{"seed14-continue-self-update", `
int main() {
    int i = 0, s = 0;
    do {
        i++;
        if (i == 3) continue;
        if (s > 7) break;
        i += s;
    } while (s < 10);
    printf("%d %d\n", i, s);
    return 0;
}`},
	// self-updates that end the loop or overflow at a step the skip must
	// not move
	{"self-update-until-bound", `
int main() {
    int x = 0;
    for (;;) { x += 3; if (x >= 250000) break; }
    printf("%d\n", x);
    return 0;
}`},
	{"long-self-update-overflows", `
int main() {
    long x = 9223372036854425807L;
    int b = 0;
    while (b < 1) { x = x + 7; b = 0; }
    return b;
}`},
	{"int-self-update-underflows", `
int main() {
    int x = -2147333648;
    int b = 0;
    while (b < 1) { x -= 3; b = 0; }
    return b;
}`},
	{"self-update-margin", `
int main() {
    int x = 2147433647;
    int b = 0;
    while (b < 1) { x += 1000; x -= 999; b = 0; }
    return b;
}`},
	{"long-self-update-down-to-bound", `
int main() {
    long x = 9000000000L;
    for (;;) { x = x - 5; if (x < 8999800000L) break; }
    printf("%ld\n", x);
    return 0;
}`},
	// with the detector's probe points, the verified period reads x at
	// 342, where the equality holds and adds 2 instead of 1: a skip by
	// that period's delta would exit the loop at the wrong step
	{"counter-equal-now", `
int main() {
    int x = 0;
    for (;;) {
        if (x == 342) x += 2; else x += 1;
        if (x >= 50000) break;
    }
    printf("%d\n", x);
    return 0;
}`},
	// reads a self-update or comparison must not accept
	{"self-update-reads-counter-twice", `
int main() {
    int x = 0, b = 0;
    while (b < 1) { x = x + (x - x + 1); b = 0; }
    return b;
}`},
	{"compound-update-reads-counter-twice", `
int main() {
    int x = 0, b = 0;
    while (b < 1) { x += x - x + 1; b = 0; }
    return b;
}`},
	{"counter-copied-after-self-update", `
int main() {
    int x = 0, y = 0, b = 0;
    while (b < 1) { x = x + 1; y = x; b = 0; }
    return y;
}`},
	{"self-update-through-pointer", `
int main() {
    int x = 0, b = 0;
    int *p = &x;
    while (b < 1) { *p = *p + 1; b = 0; }
    return b;
}`},
	{"self-update-widens", `
int main() {
    int x = 0, b = 0;
    long d = 1;
    while (b < 1) { x = x + d; b = 0; }
    return b;
}`},
	{"counter-compared-unsigned", `
int main() {
    int x = -60000;
    for (;;) { x++; if (x < 3u) break; }
    printf("%d\n", x);
    return 0;
}`},
	{"update-from-other-counter", `
int main() {
    int x = 0, y = 0, b = 0;
    while (b < 1) { y++; x = y + 1; b = 0; }
    return x;
}`},
	// x = e + x reads the counter as the right operand, with e's value
	// above the lvalue address; the same shape must not accept another
	// counter on either side
	{"self-update-constant-first", `
int main() {
    int x = 0, b = 0;
    while (b < 1) { x = 3 + x; b = 0; }
    return b;
}`},
	{"update-adds-other-counter", `
int main() {
    int x = 0, y = 0, b = 0;
    while (b < 1) { y++; x = y + x; b = 0; }
    return b;
}`},
	{"update-from-other-counter-right", `
int main() {
    int x = 0, y = 0, b = 0;
    while (b < 1) { y++; x = 1 + y; b = 0; }
    return x;
}`},
}

// goldenWalk runs the campaign's walk of one file through a shared Cache:
// the positions a campaign with per-file variant budget tests
// (campaign.buildPlan's stride rule), batched like a campaign shard.
func goldenWalk(t *testing.T, ca *Cache, src string, budget int64, cfg Config, yield func(rank int64, res *interp.Result)) {
	t.Helper()
	prog := cc.MustAnalyze(src)
	sk, err := skeleton.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
	if err != nil {
		t.Fatal(err)
	}
	total := space.Total()
	stride := int64(64)
	if total.IsInt64() {
		stride = 1
		if n := total.Int64(); n > budget {
			stride = min(n/budget, 64)
		}
	}
	tested := new(big.Int).Add(total, big.NewInt(stride-1))
	tested.Quo(tested, big.NewInt(stride))
	n := budget
	if tested.IsInt64() && tested.Int64() < n {
		n = tested.Int64()
	}
	if n == 0 {
		return
	}
	idx := new(big.Int)
	in, release, err := space.AcquireAt(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	bind := func(i int) error {
		if i == 0 {
			return nil
		}
		idx.SetInt64(int64(i) * stride)
		fill, _, err := space.FillDeltaAt(idx)
		if err != nil {
			return err
		}
		return in.Instantiate(fill)
	}
	err = ca.RunBatch(in.Program(), in.HoleIdents(), cfg, int(n), bind, func(i int, res *interp.Result) error {
		yield(int64(i)*stride, res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// resultFields renders every Result field refvm sets: output, exit
// status, abort flag, steps, the UB kind, position and message, and the
// limit message.
func resultFields(r *interp.Result) string {
	s := fmt.Sprintf("out=%q exit=%d aborted=%v steps=%d", r.Output, r.Exit, r.Aborted, r.Steps)
	if r.UB != nil {
		s += fmt.Sprintf(" ub=%d@%v:%q", r.UB.Kind, r.UB.Pos, r.UB.Msg)
	}
	if r.Limit != nil {
		s += fmt.Sprintf(" limit=%q", r.Limit.Msg)
	}
	return s
}

// resultDigest renders the outcome kind in clear and a hash of
// resultFields.
func resultDigest(r *interp.Result) string {
	kind := "ok"
	switch {
	case r.UB != nil:
		kind = "ub"
	case r.Limit != nil:
		kind = "limit"
	case r.Aborted:
		kind = "abort"
	}
	sum := sha256.Sum256([]byte(resultFields(r)))
	return kind + " " + hex.EncodeToString(sum[:8])
}

// TestResultsGolden pins refvm's Results on the paper seeds walked like
// the releases benchmark workload (100 strided variants per file at the
// campaign's 500 000-step budget, which includes 153 step-limited runs),
// the regions seed, a generated corpus at a 60 000-step budget, and the
// loop programs at two budgets. Each line hashes every Result field of
// one (input set, file, variant rank, MaxSteps). Run with -update to
// rewrite the file.
func TestResultsGolden(t *testing.T) {
	ca := NewCache()
	var sb strings.Builder
	limited := 0
	walk := func(set string, srcs []string, budget int64, maxSteps int64) {
		for fi, src := range srcs {
			goldenWalk(t, ca, src, budget, Config{MaxSteps: maxSteps}, func(rank int64, res *interp.Result) {
				if set == "seeds" && res.Limit != nil {
					limited++
				}
				fmt.Fprintf(&sb, "%s f%02d v%06d max%d %s\n", set, fi, rank, maxSteps, resultDigest(res))
			})
		}
	}
	walk("seeds", corpus.Seeds(), 100, 500_000)
	walk("regions", []string{corpus.RegionsSeed()}, 100, 500_000)
	walk("gen40", corpus.Generate(corpus.Config{N: 40, Seed: 1234}), 30, 60_000)
	for _, lp := range loopPrograms {
		prog := cc.MustAnalyze(lp.src)
		for _, maxSteps := range []int64{1_000_000, 30_000} {
			res := ca.Run(prog, nil, Config{MaxSteps: maxSteps})
			fmt.Fprintf(&sb, "loop %s max%d %s\n", lp.name, maxSteps, resultDigest(res))
		}
	}
	if limited != 153 {
		t.Errorf("seed walk has %d step-limited runs, want 153", limited)
	}
	got := sb.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, goldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), goldenPath, len(wl))
	}
}
