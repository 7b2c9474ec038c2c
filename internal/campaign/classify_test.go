package campaign

import (
	"context"
	"reflect"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/minicc"
)

// TestMatchesOracle pins the one agreement check classification,
// attribution, and reduction share, over a reference that aborts or exits
// against a compiled run that exits, prints, traps, hangs, or aborts. An
// aborting reference is matched by any aborting run, whatever it printed:
// before the check was shared, attribution demanded a clean run there and
// so could never attribute a miscompiled aborting variant, and the
// reducer kept shrinking toward programs that merely abort.
func TestMatchesOracle(t *testing.T) {
	exits := &interp.Result{Exit: 3, Output: "x=1\n"}
	aborts := &interp.Result{Aborted: true, Output: "x=1\n"}
	cases := []struct {
		name string
		ref  *interp.Result
		ex   minicc.ExecResult
		want bool
	}{
		{"exit: same exit and output", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n"}, true},
		{"exit: wrong exit", exits, minicc.ExecResult{Exit: 4, Output: "x=1\n"}, false},
		{"exit: wrong output", exits, minicc.ExecResult{Exit: 3, Output: "x=2\n"}, false},
		{"exit: trap", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Trap: "division by zero"}, false},
		{"exit: timeout", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Timeout: true}, false},
		{"exit: abort", exits, minicc.ExecResult{Exit: 3, Output: "x=1\n", Aborted: true}, false},
		{"abort: abort, same output", aborts, minicc.ExecResult{Aborted: true, Output: "x=1\n"}, true},
		{"abort: abort, other output", aborts, minicc.ExecResult{Aborted: true, Output: "x=2\n"}, true},
		{"abort: clean exit", aborts, minicc.ExecResult{Output: "x=1\n"}, false},
		{"abort: wrong exit", aborts, minicc.ExecResult{Exit: 1, Output: "x=1\n"}, false},
		{"abort: trap", aborts, minicc.ExecResult{Output: "x=1\n", Trap: "null dereference"}, false},
		{"abort: timeout", aborts, minicc.ExecResult{Output: "x=1\n", Timeout: true}, false},
	}
	for _, c := range cases {
		if got := matchesOracle(&c.ex, c.ref); got != c.want {
			t.Errorf("%s: matchesOracle = %v, want %v", c.name, got, c.want)
		}
	}
}

// releasesConfig is the paper seeds across every release, 100 variants
// per file: the campaign shape on which seed 1's original program is the
// first to show wrong-code bug 69951.
func releasesConfig() Config {
	return Config{
		Corpus:             corpus.Seeds(),
		Versions:           append([]string(nil), minicc.Versions...),
		Threshold:          -1,
		MaxVariantsPerFile: 100,
	}
}

// TestOriginalFindingKeepsCorpusText pins an original's test case: the
// finding for 69951 comes from seed 1's original program, so its test
// case must be the raw corpus text, which differs from what printing the
// parsed program yields.
func TestOriginalFindingKeepsCorpusText(t *testing.T) {
	src := corpus.Seeds()[1]
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if cc.PrintFile(file) == src {
		t.Fatal("seed 1 prints back to its raw text; the test cannot tell the two apart")
	}
	rep := mustRun(t, releasesConfig())
	for _, fd := range rep.Findings {
		if fd.BugID != "69951" {
			continue
		}
		if fd.SeedIndex != 1 || fd.TestCase != src {
			t.Fatalf("finding 69951 (seed %d) has test case\n%s\nwant seed 1's raw corpus text\n%s", fd.SeedIndex, fd.TestCase, src)
		}
		return
	}
	t.Fatal("the campaign did not find wrong-code bug 69951")
}

// TestOriginalSlotMatchesColdPipeline checks slot 0 of every file's first
// shard against the file's raw corpus text run through the references: a
// fresh parse on the tree-walker, then a cold compile per configuration.
// It pins both contracts the walk relies on for originals (refvm agrees
// with the tree-walker, and a cached compilation equals a cold one), and
// that slot 0 holds the original, not variant 0.
func TestOriginalSlotMatchesColdPipeline(t *testing.T) {
	cfg := releasesConfig()
	cfg.MaxVariantsPerFile = 8
	cfg = cfg.withDefaults()
	all, err := buildAllTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range all {
		if !tk.includeOriginal {
			continue
		}
		r := runTask(context.Background(), cfg, tk)
		if r.err != nil {
			t.Fatal(r.err)
		}
		got, want := r.variants[0], coldOriginal(t, cfg, tk.plan.src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("corpus[%d] original: walk gives %+v, cold pipeline %+v", tk.plan.seedIdx, got, want)
		}
	}
}

// coldOriginal tests a raw corpus text on the references: the tree-walker
// for the verdict, then a cold Compiler.Run per configuration.
func coldOriginal(t *testing.T, cfg Config, src string) variantResult {
	t.Helper()
	file, err := cc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cc.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	ref := interp.Run(prog, interp.Config{MaxSteps: cfg.Steps})
	if !ref.Defined() {
		return variantResult{status: statusUB}
	}
	vr := variantResult{status: statusClean}
	var attr attrTable
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			vr.executions++
			ro := (&minicc.Compiler{Version: ver, Opt: opt, Seeded: true}).Run(prog, minicc.ExecConfig{MaxSteps: execSteps(ref)})
			if s, found := classifyOutcome(cfg, ver, opt, ref, ro, prog, &attr, -1, nil); found {
				vr.src = src
				vr.symptoms = append(vr.symptoms, s)
			}
		}
	}
	return vr
}
