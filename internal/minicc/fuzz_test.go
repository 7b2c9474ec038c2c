package minicc

import (
	"fmt"
	"math/big"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// TestDifferentialGeneratedCorpus is the repository's strongest integration
// test: for a generated corpus, the *unseeded* compiler must agree with the
// reference interpreter at every optimization level. Any mismatch is a real
// miscompilation in our own optimizer (not a seeded bug).
func TestDifferentialGeneratedCorpus(t *testing.T) {
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: 40, Seed: 1234})...)
	for i, src := range progs {
		prog := analyzeT(t, src)
		ref := interp.Run(prog, interp.Config{})
		if !ref.Defined() {
			t.Fatalf("corpus[%d] has UB: %v", i, ref.UB)
		}
		for _, opt := range OptLevels {
			c := &Compiler{Opt: opt}
			ro := c.Run(prog, ExecConfig{})
			if !ro.Compile.Ok() {
				t.Errorf("corpus[%d] -O%d: compile failed: %+v\n%s", i, opt, ro.Compile, src)
				continue
			}
			ex := ro.Exec
			if ex.Aborted != ref.Aborted {
				t.Errorf("corpus[%d] -O%d: abort mismatch\n%s", i, opt, src)
				continue
			}
			if !ex.Aborted && (!ex.Ok() || ex.Exit != ref.Exit || ex.Output != ref.Output) {
				t.Errorf("corpus[%d] -O%d: got (%d, %q, trap=%q), want (%d, %q)\n%s",
					i, opt, ex.Exit, ex.Output, ex.Trap, ref.Exit, ref.Output, src)
			}
		}
	}
}

// TestDifferentialEnumeratedVariants extends the differential check to
// enumerated variants: every UB-free re-filling must also compile
// correctly with the unseeded optimizer. This exercises optimizer paths
// (equal-operand folding, aliasing patterns, dead branches) that original
// programs rarely reach — the paper's core premise.
func TestDifferentialEnumeratedVariants(t *testing.T) {
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: 10, Seed: 555})...)
	checked := 0
	for i, src := range progs {
		prog := analyzeT(t, src)
		sk, err := skeleton.Build(prog)
		if err != nil {
			t.Fatalf("corpus[%d]: %v", i, err)
		}
		n := 0
		_, err = spe.Enumerate(sk, spe.Options{Mode: spe.ModeCanonical}, func(v spe.Variant) bool {
			n++
			vf, err := cc.Parse(v.Source)
			if err != nil {
				t.Errorf("corpus[%d] variant %d does not parse: %v", i, v.Index, err)
				return false
			}
			vp, err := cc.Analyze(vf)
			if err != nil {
				t.Errorf("corpus[%d] variant %d does not analyze: %v", i, v.Index, err)
				return false
			}
			ref := interp.Run(vp, interp.Config{MaxSteps: 300_000})
			if !ref.Defined() {
				return n < 25 // UB variant: skipped, like the harness does
			}
			for _, opt := range []int{0, 3} {
				c := &Compiler{Opt: opt}
				ro := c.Run(vp, ExecConfig{MaxSteps: 1_200_000})
				if !ro.Compile.Ok() {
					t.Errorf("corpus[%d] variant %d -O%d: compile failed: %+v\n%s",
						i, v.Index, opt, ro.Compile, v.Source)
					return false
				}
				ex := ro.Exec
				if ex.Aborted != ref.Aborted {
					t.Errorf("corpus[%d] variant %d -O%d: abort mismatch\n%s", i, v.Index, opt, v.Source)
					return false
				}
				if !ex.Aborted && (!ex.Ok() || ex.Exit != ref.Exit || ex.Output != ref.Output) {
					t.Errorf("corpus[%d] variant %d -O%d: got (%d, %q, trap=%q), want (%d, %q)\n%s",
						i, v.Index, opt, ex.Exit, ex.Output, ex.Trap, ref.Exit, ref.Output, v.Source)
					return false
				}
			}
			checked++
			return n < 25
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked < 100 {
		t.Errorf("only %d clean variants differentially checked", checked)
	}
	t.Logf("differentially checked %d enumerated variants", checked)
}

// FuzzMiniccDifferential picks a generated corpus (generator seed), a
// file of it, a variant rank, a compiler version and -O level, seeded or
// not, and a step budget between 5 000 and 100 000. The variant runs
// through a Cache patched from the file's first variant, as in a campaign
// shard, on the threaded loop (with the loop detector), and fresh on the
// switch loop (without it). The compile outcome, every ExecResult field
// and every coverage count must match. The seed entries use only the
// repository's generator seeds.
func FuzzMiniccDifferential(f *testing.F) {
	// files with more holes are skipped: building their enumeration
	// space takes up to seconds
	const maxFuzzHoles = 32
	f.Add(int64(20170618), uint8(0), uint64(0), uint8(3), uint8(0), false, uint32(95_000))
	f.Add(int64(20170619), uint8(2), uint64(41), uint8(0), uint8(3), true, uint32(0))
	f.Add(int64(1234), uint8(3), uint64(977), uint8(1), uint8(2), true, uint32(55_000))
	// a seeded hang the loop detector cuts short
	f.Add(int64(41), uint8(1), uint64(0), uint8(0), uint8(1), true, uint32(55_000))
	f.Fuzz(func(t *testing.T, seed int64, file uint8, rank uint64, ver, opt uint8, seeded bool, steps uint32) {
		maxSteps := 5_000 + int64(steps%95_001)
		srcs := corpus.Generate(corpus.Config{N: int(file%4) + 1, Seed: seed})
		prog := cc.MustAnalyze(srcs[len(srcs)-1])
		sk, err := skeleton.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(sk.Holes) > maxFuzzHoles {
			t.Skip("too many holes")
		}
		space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
		if err != nil {
			t.Fatal(err)
		}
		in, release, err := space.AcquireAt(new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		c := &Compiler{Version: Versions[int(ver)%len(Versions)], Opt: OptLevels[int(opt)%len(OptLevels)], Seeded: seeded}
		cfg := ExecConfig{MaxSteps: maxSteps}
		ca := NewCache()
		if _, err := c.RunCached(ca, in.Program(), in.HoleIdents(), cfg, false); err != nil {
			t.Fatal(err)
		}
		idx := new(big.Int).Mod(new(big.Int).SetUint64(rank), space.Total())
		fill, _, err := space.FillDeltaAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Instantiate(fill); err != nil {
			t.Fatal(err)
		}
		vprog := in.Program()
		c.Coverage = NewCoverage()
		got, err := c.RunCached(ca, vprog, in.HoleIdents(), cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		gotCov := c.Coverage
		c.Coverage = NewCoverage()
		ref := c.Run(vprog, ExecConfig{MaxSteps: maxSteps, Dispatch: DispatchSwitch})
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("variant %v, %s, seeded=%v, %d steps: %s\n--- source ---\n%s",
				idx, c, seeded, maxSteps, fmt.Sprintf(format, args...), cc.PrintFile(vprog.File))
		}
		if g, r := compileDigest(got.Compile), compileDigest(ref.Compile); g != r {
			fail("threaded compile %q, switch %q", g, r)
		}
		if got.Exec != nil {
			if err := sameExec(got.Exec, ref.Exec); err != nil {
				fail("%v", err)
			}
		}
		for _, site := range Sites() {
			if g, r := gotCov.SiteCount(site), c.Coverage.SiteCount(site); g != r {
				fail("coverage site %s: %d hits, switch loop %d", site, g, r)
			}
		}
	})
}
