package minicc

import (
	"fmt"
	"sort"

	"spe/internal/cc"
)

// Compiler configures one compilation: a simulated release version, an
// optimization level, and whether the seeded bugs of that version are
// active (Seeded=false yields the correct reference compiler used as the
// differential baseline).
type Compiler struct {
	// Version names a simulated release from Versions; defaults to trunk.
	Version string
	// Opt is the optimization level 0..3.
	Opt int
	// Seeded activates the version's seeded bugs.
	Seeded bool
	// Bugs, when non-nil, overrides the computed bug set (used by the
	// harness to attribute wrong-code findings by selective deactivation).
	Bugs *BugSet
	// Coverage, when non-nil, records pass instrumentation hits.
	Coverage *Coverage
	// WorkBudget bounds compile-time work units (performance-bug
	// detection); defaults to 1,000,000.
	WorkBudget int64
}

// Output is the result of a compilation attempt.
type Output struct {
	Program *Program
	// Crash is non-nil when the compiler crashed (internal error).
	Crash *CrashError
	// Timeout is non-nil when compilation exceeded its work budget.
	Timeout *TimeoutError
	// Err reports unsupported inputs.
	Err error
}

// Ok reports a successful compilation.
func (o *Output) Ok() bool {
	return o.Program != nil && o.Crash == nil && o.Timeout == nil && o.Err == nil
}

// bugSet resolves the active bug set.
func (c *Compiler) bugSet() *BugSet {
	if c.Bugs != nil {
		return c.Bugs
	}
	if !c.Seeded {
		return EmptyBugSet()
	}
	v := VersionIndex(c.Version)
	if v < 0 {
		v = len(Versions) - 1
	}
	return BugsFor(v, c.Opt)
}

// Compile lowers and optimizes a program at the configured level.
func (c *Compiler) Compile(src *cc.Program) (out *Output) {
	out = &Output{}
	bugs := c.bugSet()
	cov := c.Coverage
	budget := c.WorkBudget
	if budget == 0 {
		budget = 1_000_000
	}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *CrashError:
				out.Crash = e
				out.Program = nil
			case *TimeoutError:
				out.Timeout = e
				out.Program = nil
			default:
				panic(r)
			}
		}
	}()
	irp, err := Lower(src, bugs, cov)
	if err != nil {
		if ce, ok := err.(*CrashError); ok {
			out.Crash = ce
			return out
		}
		out.Err = err
		return out
	}
	out.Program = irp
	c.runPasses(irp, &passCtx{cov: cov, bugs: bugs, budget: budget})
	return out
}

// runPasses drives the optimization pipeline over a lowered program — the
// post-frontend half of Compile, shared with the template-cached RunCached
// path so both flavors optimize (and trigger seeded middle-end/backend
// bugs) identically. p carries the recorder, bug set and budget, and its
// scratch tables may be warm from earlier compilations. It can panic with
// *CrashError or *TimeoutError; the callers' recover turns those into
// Output fields.
func (c *Compiler) runPasses(irp *Program, p *passCtx) {
	// Deterministic function order: a seeded crash or budget timeout aborts
	// the pipeline mid-iteration, so the set of functions optimized before
	// the abort (and their coverage hits) must not depend on map order.
	p.names = p.names[:0]
	for name := range irp.Funcs {
		p.names = append(p.names, name)
	}
	sort.Strings(p.names)
	for _, name := range p.names {
		f := irp.Funcs[name]
		c.optimizeFunc(f, p)
		if c.Opt >= 1 {
			p.bugs.MaybeCrash(p.cov, "backend-block-limit", func() bool {
				return len(f.Blocks) > 24
			})
		}
	}
}

// pipelines lists the passes of each -O level in run order; -O0 runs none
// and every level above 3 runs -O3's.
var pipelines = [4][]func(*Func, *passCtx){
	1: {constFold, copyProp, dce, simplifyCFG},
	2: {constFold, copyProp, constProp, cse, aliasForward,
		constFold, copyProp, dce, simplifyCFG},
	3: {constFold, copyProp, constProp, cse, aliasForward, licm,
		constFold, copyProp, constProp, dce, simplifyCFG, dce},
}

// pipeline returns the pass list of an optimization level.
func pipeline(opt int) []func(*Func, *passCtx) {
	return pipelines[max(0, min(opt, 3))]
}

func (c *Compiler) optimizeFunc(f *Func, p *passCtx) {
	for _, pass := range pipeline(c.Opt) {
		pass(f, p)
	}
}

// Run compiles and executes a program, combining compile- and run-time
// outcomes for the differential harness.
type RunOutcome struct {
	Compile *Output
	Exec    *ExecResult
}

// Run compiles src and, on success, executes it.
func (c *Compiler) Run(src *cc.Program, cfg ExecConfig) *RunOutcome {
	out := c.Compile(src)
	ro := &RunOutcome{Compile: out}
	if !out.Ok() {
		return ro
	}
	ro.Exec = Execute(out.Program, c.bugSet(), c.Coverage, cfg)
	return ro
}

// OptLevels lists the optimization levels exercised by the harness,
// matching the paper's -O0 and -O3 plus the intermediate levels of
// Figure 10(b).
var OptLevels = []int{0, 1, 2, 3}

// String describes the compiler configuration.
func (c *Compiler) String() string {
	v := c.Version
	if v == "" {
		v = Versions[len(Versions)-1]
	}
	return fmt.Sprintf("minicc-%s -O%d", v, c.Opt)
}
