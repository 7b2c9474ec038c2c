package minicc

import (
	"fmt"
	"testing"

	"spe/internal/cc"
)

// loopPrograms are small programs around the loop detector: loops whose
// whole state repeats, which it must cut short, and near misses, which it
// must run out. Each near miss repeats every part of the state the
// detector compares but one.
var loopPrograms = []struct {
	name, src string
	skip      bool
}{
	{"empty-body", `
int main() {
    for (;;) {}
    return 0;
}`, true},
	{"store-through-fixed-pointer", `
int x;
int main() {
    int *p = &x;
    for (;;) *p = 1;
    return 0;
}`, true},
	// f's loop repeats its registers in every call, and main keeps its
	// counters in registers the snapshot of f's frame cannot see
	{"same-block-other-call", `
int f() {
    int i, s = 0;
    for (i = 0; i < 10; i++) s += i;
    return s;
}
int main() {
    int n, t = 0;
    for (n = 0; n < 5000; n++) t += f();
    printf("%d\n", t);
    return t & 1;
}`, false},
	// main's registers repeat; only the global the callees touch moves
	{"counter-in-global", `
int g;
int more() { return g < 20000; }
void inc() { g++; }
int main() {
    while (more()) inc();
    printf("%d\n", g);
    return 0;
}`, false},
	// the same, counting in a string literal's characters
	{"counter-in-string", `
int more(char *s) { return s[1] < 100; }
void inc(char *s) {
    s[0]++;
    if (s[0] == 100) {
        s[0] = 0;
        s[1]++;
    }
}
int main() {
    char *s = "00";
    while (more(s)) inc(s);
    printf("%d %d\n", s[0], s[1]);
    return 0;
}`, false},
	// everything repeats but the output, which ends the run at the
	// output cap long before the step budget
	{"prints-to-output-cap", `
int main() {
    for (;;) printf("................................................................\n");
    return 0;
}`, false},
}

// TestLoopDetector runs every loop program at every -O level through a
// Cache on the threaded loop, with coverage recorded, and fresh on the
// switch loop, and requires every ExecResult field and every coverage
// count to match and the detector to cut the run short exactly for the
// programs whose whole state repeats.
func TestLoopDetector(t *testing.T) {
	const maxSteps = 1_000_000
	ca := NewCache()
	for _, lp := range loopPrograms {
		prog := cc.MustAnalyze(lp.src)
		for _, opt := range OptLevels {
			label := fmt.Sprintf("%s -O%d", lp.name, opt)
			cov := NewCoverage()
			before := ca.Stats()
			ro, err := (&Compiler{Opt: opt, Coverage: cov}).RunCached(ca, prog, nil, ExecConfig{MaxSteps: maxSteps}, false)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			skipped := ca.Stats().Sub(before).LoopSkips == 1
			refCov := NewCoverage()
			ref := (&Compiler{Opt: opt, Coverage: refCov}).Run(prog, ExecConfig{MaxSteps: maxSteps, Dispatch: DispatchSwitch})
			if !ro.Compile.Ok() || !ref.Compile.Ok() {
				t.Fatalf("%s: compile failed", label)
			}
			if err := sameExec(ro.Exec, ref.Exec); err != nil {
				t.Errorf("%s: %v", label, err)
			}
			for _, site := range Sites() {
				if g, w := cov.SiteCount(site), refCov.SiteCount(site); g != w {
					t.Errorf("%s: coverage site %s: %d hits, switch loop %d", label, site, g, w)
				}
			}
			if skipped != lp.skip {
				t.Errorf("%s: cut short %v, want %v (steps %d, timeout %v)", label, skipped, lp.skip, ro.Exec.Steps, ro.Exec.Timeout)
			}
			// a repeating run ends at the step budget, a near miss before it
			if ends := ro.Exec.Timeout && ro.Exec.Steps > maxSteps; ends != lp.skip {
				t.Errorf("%s: ends at the step budget %v, want %v (steps %d)", label, ends, lp.skip, ro.Exec.Steps)
			}
		}
	}
}
