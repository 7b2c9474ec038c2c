package minicc

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"os"
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/refvm"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

const (
	execGoldenPath = "testdata/exec.golden"
	// execGoldenVariants and execGoldenOracleSteps are the releases
	// workload's per-file variant budget and oracle step budget.
	execGoldenVariants    = 100
	execGoldenOracleSteps = 500_000
)

// execBudget is the campaign's step budget for a compiled binary whose
// reference run took refSteps.
func execBudget(refSteps int64) int64 { return refSteps*20 + 50_000 }

// execKind is one letter per outcome: o a clean run, c/t/e a compiler
// crash, timeout or error, and for executions T a trap, H a step or
// output budget timeout, A an abort.
func execKind(ro *RunOutcome) byte {
	switch out := ro.Compile; {
	case out.Crash != nil:
		return 'c'
	case out.Timeout != nil:
		return 't'
	case out.Err != nil:
		return 'e'
	}
	switch e := ro.Exec; {
	case e.Trap != "":
		return 'T'
	case e.Timeout:
		return 'H'
	case e.Aborted:
		return 'A'
	}
	return 'o'
}

// execOutcomes collects the 16 seeded (version, -O) outcomes of one
// program in the campaign's version-outer, opt-inner order.
type execOutcomes struct {
	kinds []byte
	h     []string
}

func (eo *execOutcomes) add(ro *RunOutcome, cov *Coverage) {
	eo.kinds = append(eo.kinds, execKind(ro))
	eo.h = append(eo.h, runDigest(ro, cov))
}

func (eo *execOutcomes) line(label string) string {
	return fmt.Sprintf("%s %s %x\n", label, eo.kinds, sha256.Sum256([]byte(strings.Join(eo.h, "\n"))))
}

// execGoldenWalk walks one file as the releases campaign does: the first
// execGoldenVariants canonical variants at refvm's goldenWalk stride (the
// campaign's buildPlan rule), the oracle verdicts first through one refvm
// batch, then each seeded (version, -O) pair through one minicc batch
// over the defined variants at the campaign's step budget, with a fresh
// coverage recorder per run. It returns one outcome set per walk
// position, nil for a variant with undefined behavior.
func execGoldenWalk(t *testing.T, ca *Cache, rc *refvm.Cache, src string) (ranks []int64, outs []*execOutcomes) {
	t.Helper()
	sk, err := skeleton.Build(cc.MustAnalyze(src))
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
		if n := total.Int64(); n > execGoldenVariants {
			stride = min(n/execGoldenVariants, 64)
		}
	}
	tested := new(big.Int).Add(total, big.NewInt(stride-1))
	tested.Quo(tested, big.NewInt(stride))
	n := int64(execGoldenVariants)
	if tested.IsInt64() && tested.Int64() < n {
		n = tested.Int64()
	}
	idx := new(big.Int)
	in, release, err := space.AcquireAt(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	bindAt := func(i int) error {
		idx.SetInt64(int64(i) * stride)
		fill, _, err := space.FillDeltaAt(idx)
		if err != nil {
			return err
		}
		return in.Instantiate(fill)
	}
	refs := make([]*interp.Result, n)
	err = rc.RunBatch(in.Program(), in.HoleIdents(), refvm.Config{MaxSteps: execGoldenOracleSteps}, int(n),
		func(i int) error {
			if i == 0 {
				return nil
			}
			return bindAt(i)
		},
		func(i int, res *interp.Result) error {
			refs[i] = res
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	outs = make([]*execOutcomes, n)
	var clean []int
	for i, ref := range refs {
		ranks = append(ranks, int64(i)*stride)
		if ref.Defined() {
			outs[i] = &execOutcomes{}
			clean = append(clean, i)
		}
	}
	if len(clean) == 0 {
		return ranks, outs
	}
	for _, ver := range Versions {
		for _, opt := range OptLevels {
			c := &Compiler{Version: ver, Opt: opt, Seeded: true}
			err := c.RunBatch(ca, in.Program(), in.HoleIdents(), false, len(clean),
				func(k int) (ExecConfig, error) {
					c.Coverage = NewCoverage()
					return ExecConfig{MaxSteps: execBudget(refs[clean[k]].Steps)}, bindAt(clean[k])
				},
				func(k int, ro *RunOutcome) error {
					outs[clean[k]].add(ro, c.Coverage)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return ranks, outs
}

// TestExecGolden pins what the compiled binaries of the releases
// workload do: each paper seed walked like the campaign (see
// execGoldenWalk) and each seed's original, which runs cold through
// Compiler.Run. One line per (file, walk position) with a defined oracle
// run gives the outcome kind of each of the 16 seeded (version, -O)
// pairs and hashes, per pair, the compile outcome, every ExecResult
// field and every non-zero coverage count. The walk includes the seeded
// wrong-code hangs that run to the step budget. Run with -update to
// rewrite the file.
func TestExecGolden(t *testing.T) {
	ca, rc := NewCache(), refvm.NewCache()
	var sb strings.Builder
	for fi, src := range corpus.Seeds() {
		prog := cc.MustAnalyze(src)
		if ref := refvm.Run(prog, refvm.Config{MaxSteps: execGoldenOracleSteps}); ref.Defined() {
			eo := &execOutcomes{}
			for _, ver := range Versions {
				for _, opt := range OptLevels {
					cov := NewCoverage()
					c := &Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
					eo.add(c.Run(prog, ExecConfig{MaxSteps: execBudget(ref.Steps)}), cov)
				}
			}
			sb.WriteString(eo.line(fmt.Sprintf("f%02d orig   ", fi)))
		}
		ranks, outs := execGoldenWalk(t, ca, rc, src)
		for i, eo := range outs {
			if eo != nil {
				sb.WriteString(eo.line(fmt.Sprintf("f%02d v%06d", fi, ranks[i])))
			}
		}
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(execGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(execGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, execGoldenPath, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, %s has %d", len(gl), execGoldenPath, len(wl))
	}
}
