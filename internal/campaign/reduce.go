package campaign

import (
	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/reduce"
)

// reduceFinding shrinks a finding's sample test case while preserving its
// symptom — the paper's pre-filing reduction step (§6, C-Reduce's role).
// The interestingness predicate re-runs the classification: a crash
// finding must keep crashing with the same signature; a wrong-code or
// performance finding must keep diverging from the reference.
//
// Reduction runs on the reducer's typed-program entry: the finding's test
// case is parsed once here and handed over as an analyzed program, which
// ReduceProgram defensively clones before mutating — so even if a future
// caller passes a program aliased to a live template or pooled instance,
// reduction can never corrupt it (pinned by the mutation-isolation tests).
func reduceFinding(fd *Finding, cfg Config) {
	ver := "trunk"
	if len(fd.Versions) > 0 {
		ver = fd.Versions[0]
	}
	opt := 3
	if len(fd.OptLevels) > 0 {
		opt = fd.OptLevels[0]
	}
	pred := findingPredicate(fd, ver, opt, cfg)
	prog, err := parseAnalyze(fd.TestCase)
	if err != nil {
		return // an unparsable test case is left as recorded
	}
	res, err := reduce.ReduceProgram(prog, pred, reduce.Options{MaxChecks: 400})
	if err != nil || !res.Interesting {
		// an uninteresting test case keeps its recorded text verbatim (the
		// historical string path echoed the input back)
		return
	}
	fd.TestCase = res.Source
}

// parseAnalyze parses and analyzes a source text.
func parseAnalyze(src string) (*cc.Program, error) {
	f, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	return cc.Analyze(f)
}

// findingPredicate builds the interestingness test for one finding.
func findingPredicate(fd *Finding, ver string, opt int, cfg Config) reduce.Predicate {
	return func(prog *cc.Program) bool {
		comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true}
		switch fd.Kind {
		case minicc.BugCrash:
			out := comp.Compile(prog)
			return out.Crash != nil && out.Crash.Signature == fd.Signature
		case minicc.BugPerformance:
			out := comp.Compile(prog)
			return out.Timeout != nil
		default:
			ref := interp.Run(prog, interp.Config{MaxSteps: cfg.Steps})
			if !ref.Defined() {
				return false // a reduction must stay UB-free to count
			}
			ro := comp.Run(prog, minicc.ExecConfig{MaxSteps: execSteps(ref)})
			return ro.Compile.Ok() && !matchesOracle(ro.Exec, ref)
		}
	}
}
