package minicc

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
)

// pipelinePrograms is the optimizer's regression set: the paper-figure
// seeds, the engineered regions file, and a generated corpus.
func pipelinePrograms(t testing.TB) []*cc.Program {
	t.Helper()
	srcs := append(corpus.Seeds(), corpus.RegionsSeed())
	srcs = append(srcs, corpus.Generate(corpus.Config{N: 40, Seed: 1234})...)
	progs := make([]*cc.Program, 0, len(srcs))
	for i, src := range srcs {
		f, err := cc.Parse(src)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		p, err := cc.Analyze(f)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		progs = append(progs, p)
	}
	return progs
}

// compileDigest renders one compilation's outcome: the optimized IR, or
// the crash, timeout, or error that replaced it.
func compileDigest(out *Output) string {
	switch {
	case out.Crash != nil:
		return "crash: " + out.Crash.Signature
	case out.Timeout != nil:
		return "timeout: " + out.Timeout.Pass
	case out.Err != nil:
		return "error: " + out.Err.Error()
	}
	return irString(out.Program)
}

// TestOptimizedIRDeterministic compiles every regression program
// repeatedly under every (version, -O) and requires identical optimized
// IR: no pass may let map iteration order reach the instruction stream.
func TestOptimizedIRDeterministic(t *testing.T) {
	const reps = 6
	for pi, prog := range pipelinePrograms(t) {
		for _, ver := range Versions {
			for _, opt := range OptLevels {
				c := &Compiler{Version: ver, Opt: opt, Seeded: true}
				want := compileDigest(c.Compile(prog))
				for r := 1; r < reps; r++ {
					if got := compileDigest(c.Compile(prog)); got != want {
						t.Fatalf("program %d, %s: compilation %d differs\n--- first ---\n%s--- now ---\n%s",
							pi, c, r, want, got)
					}
				}
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/pipeline.golden from the current compiler")

const (
	goldenPath = "testdata/pipeline.golden"
	// goldenSteps caps execution: several seeds loop until the step limit,
	// and the cap keeps the test fast without hiding a Steps difference.
	goldenSteps = 20_000
)

// TestPipelineGolden pins what the optimization pipeline does to every
// regression program under every (version, -O, seeded) configuration: one
// golden line per configuration hashes the optimized IR (or the crash,
// timeout, or error that replaced it), every non-zero coverage count, and
// the execution result including Steps. The compilations share one Cache,
// so reused pass scratch is exercised across programs of every size.
// Run with -update to rewrite the file. Alongside, every pass of every
// pipeline is checked to preserve the IR invariants the passes rely on.
func TestPipelineGolden(t *testing.T) {
	progs := pipelinePrograms(t)
	ca := NewCache()
	var sb strings.Builder
	for pi, prog := range progs {
		for _, ver := range Versions {
			for _, opt := range OptLevels {
				for _, seeded := range []bool{false, true} {
					cov := NewCoverage()
					c := &Compiler{Version: ver, Opt: opt, Seeded: seeded, Coverage: cov}
					ro, err := c.RunCached(ca, prog, nil, ExecConfig{MaxSteps: goldenSteps}, false)
					if err != nil {
						t.Fatalf("program %d, %s: %v", pi, c, err)
					}
					fmt.Fprintf(&sb, "p%02d %-5s O%d seeded=%-5v %s\n", pi, ver, opt, seeded, runDigest(ro, cov))
					if err := checkPassInvariants(prog, c); err != nil {
						t.Fatalf("program %d, %s (seeded=%v): %v", pi, c, seeded, err)
					}
				}
			}
		}
	}
	got := sb.String()
	if *update {
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

// runDigest summarizes one compile-and-run: the outcome kind in clear,
// then a hash of the optimized IR, the non-zero site counts, and the
// execution result.
func runDigest(ro *RunOutcome, cov *Coverage) string {
	kind := "ok"
	switch out := ro.Compile; {
	case out.Crash != nil:
		kind = "crash"
	case out.Timeout != nil:
		kind = "timeout"
	case out.Err != nil:
		kind = "error"
	case !ro.Exec.Ok():
		kind = "trap"
	}
	h := sha256.New()
	fmt.Fprintln(h, compileDigest(ro.Compile))
	for _, s := range Sites() {
		if n := cov.SiteCount(s); n > 0 {
			fmt.Fprintf(h, "%s=%d\n", s, n)
		}
	}
	if e := ro.Exec; e != nil {
		fmt.Fprintf(h, "%q exit=%d trap=%q timeout=%v aborted=%v steps=%d\n",
			e.Output, e.Exit, e.Trap, e.Timeout, e.Aborted, e.Steps)
	}
	return fmt.Sprintf("%-7s %x", kind, h.Sum(nil)[:8])
}

// checkPassInvariants lowers prog afresh and runs c's pipeline pass by
// pass, checking after lowering and after every pass the invariants the
// passes' dense per-register, per-block and per-symbol tables rely on
// (see dom.go). A seeded crash or timeout ends the check early.
func checkPassInvariants(prog *cc.Program, c *Compiler) (err error) {
	bugs := c.bugSet()
	irp, lerr := Lower(prog, bugs, nil)
	if lerr != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *CrashError, *TimeoutError:
			default:
				panic(r)
			}
		}
	}()
	names := make([]string, 0, len(irp.Funcs))
	for name := range irp.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	p := &passCtx{bugs: bugs, budget: 1_000_000}
	for _, name := range names {
		f := irp.Funcs[name]
		if err := checkIRInvariants(f, prog); err != nil {
			return fmt.Errorf("after lowering %s: %w", name, err)
		}
		for _, pass := range pipeline(c.Opt) {
			pass(f, p)
			if err := checkIRInvariants(f, prog); err != nil {
				pn := runtime.FuncForPC(reflect.ValueOf(pass).Pointer()).Name()
				return fmt.Errorf("after %s on %s: %w\n%s", pn, name, err, f)
			}
		}
	}
	return nil
}

// checkIRInvariants checks one function: block IDs are unique, the entry
// and every branch target are non-nil blocks of f, every register operand
// lies in [0, NumRegs], and every OpAddrVar symbol is the program's symbol
// of that ID.
func checkIRInvariants(f *Func, prog *cc.Program) error {
	ids := make(map[int]bool, len(f.Blocks))
	in := make(map[*Block]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if ids[b.ID] {
			return fmt.Errorf("duplicate block ID %d", b.ID)
		}
		ids[b.ID] = true
		in[b] = true
	}
	if !in[f.Entry] {
		return errors.New("entry is not a block of the function")
	}
	reg := func(r Reg) error {
		if r < 0 || int(r) > f.NumRegs {
			return fmt.Errorf("register r%d outside [0, %d]", r, f.NumRegs)
		}
		return nil
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			for _, r := range append([]Reg{ins.Dst, ins.A, ins.B}, ins.Args...) {
				if err := reg(r); err != nil {
					return fmt.Errorf("b%d: %s: %w", b.ID, ins, err)
				}
			}
			if ins.Op == OpAddrVar {
				if id := ins.Sym.ID; id < 0 || id >= len(prog.Symbols) || prog.Symbols[id] != ins.Sym {
					return fmt.Errorf("b%d: %s: symbol ID %d is not the program's", b.ID, ins, id)
				}
			}
		}
		if err := reg(b.Term.Cond); err != nil {
			return fmt.Errorf("b%d terminator: %w", b.ID, err)
		}
		if err := reg(b.Term.Val); err != nil {
			return fmt.Errorf("b%d terminator: %w", b.ID, err)
		}
		ss, n := b.succs()
		for _, s := range ss[:n] {
			if !in[s] {
				return fmt.Errorf("b%d branches to a block outside the function", b.ID)
			}
		}
	}
	return nil
}

// regionsPipeline returns a function that runs the -O<opt> pipeline over a
// fresh copy of the regions seed's lowered IR, reusing one Cache's
// template clone and pass scratch: the per-variant work of a campaign
// compilation minus lowering, with coverage recording on.
func regionsPipeline(t testing.TB, opt int) func() {
	t.Helper()
	f, err := cc.Parse(corpus.RegionsSeed())
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		t.Fatal(err)
	}
	ca := NewCache()
	tm := buildTemplate(prog, nil)
	c := &Compiler{Version: "trunk", Opt: opt, Seeded: true}
	bugs, cov := c.bugSet(), NewCoverage()
	return func() {
		irp := tm.instantiate()
		unfuseProgram(irp)
		ca.passes.begin(cov, bugs, 1_000_000)
		c.runPasses(irp, &ca.passes)
	}
}

// BenchmarkPassPipeline times the optimization pipeline alone at each
// level on the regions seed.
func BenchmarkPassPipeline(b *testing.B) {
	for opt := 1; opt <= 3; opt++ {
		b.Run(fmt.Sprintf("O%d", opt), func(b *testing.B) {
			run := regionsPipeline(b, opt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// TestPassPipelineAllocs bounds the allocations of a pipeline run with
// warm scratch. With per-pass maps, a run allocated 378 / 551 / 1026 times
// at -O1 / -O2 / -O3; the dense tables must at least halve that.
func TestPassPipelineAllocs(t *testing.T) {
	parent := map[int]float64{1: 378, 2: 551, 3: 1026}
	for opt := 1; opt <= 3; opt++ {
		run := regionsPipeline(t, opt)
		run() // warm the scratch
		if got := testing.AllocsPerRun(20, run); got > parent[opt]/2 {
			t.Errorf("-O%d: %.0f allocations per run, want at most %.0f", opt, got, parent[opt]/2)
		}
	}
}
