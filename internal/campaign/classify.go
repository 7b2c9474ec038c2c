package campaign

import (
	"fmt"
	"sync"
	"time"

	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
)

// The classification pipeline is split across the worker/aggregator
// boundary: workers do everything expensive (parsing, reference
// interpretation, compilation, execution, root-cause attribution) and emit
// compact symptom records; the aggregator replays those records in
// canonical enumeration order, which keeps finding deduplication,
// attribution, and sample-test-case selection byte-identical to the
// sequential harness regardless of worker scheduling.
//
// Wrong-code attribution runs once per file and key, not once per
// variant or shard. The aggregator keeps only the first verdict in merge
// order for each (seed, version, opt, coarse class) key, and merge order
// within a file is walk order, so only the verdict of the file's
// lowest-positioned variant showing a key can reach the report. Each
// file's attrTable records the lowest walk position known to show each
// key; a variant runs the search only when no lower position is known,
// and otherwise emits an empty BugID the aggregator never reads. A skip
// needs a lower-positioned variant of the same file that shows the key,
// whose shard has a lower seq and therefore merges first — so reports
// cannot change under any worker count, dispatch order, re-lease, or
// resume.

// variantStatus is the coarse outcome of preparing one variant.
type variantStatus int

const (
	// statusParseFail marks an original seed source the front end
	// rejected — a bug in us, since the plan already parsed the same text.
	// Enumerated variants are never parsed (the -paranoid cross-check
	// re-parses each one and fails the campaign loudly on divergence).
	statusParseFail variantStatus = iota
	statusUB                      // filtered by the reference interpreter
	statusClean
)

// symptomClass discriminates symptom records.
type symptomClass int

const (
	classCrash symptomClass = iota
	classPerfHang
	classMismatch
)

// symptom is one compiler-configuration-level divergence observed by a
// worker.
type symptom struct {
	Ver   string
	Opt   int
	Class symptomClass
	// BugID carries the crash's bug, the compile-hang attribution, or the
	// wrong-code attribution. A wrong-code variant searches only when no
	// lower-positioned variant of its file is known to show the same key
	// (see attrTable); otherwise BugID stays empty, and the aggregator,
	// which keeps only the first verdict in merge order per key, never
	// reads it.
	BugID  string
	Sig    string
	Coarse string // mismatch symptom class: the dedup and attribution key
}

// variantResult is everything the aggregator needs to replay one tested
// variant. src is populated lazily: the aggregator only reads it when a
// symptom turns into a finding's sample test case, so the AST-resident hot
// path renders source exclusively for symptomatic variants.
type variantResult struct {
	status     variantStatus
	executions int
	src        string
	symptoms   []symptom
}

// attrKey is the per-file part of the aggregator's attribution key: the
// aggregator keys verdicts by (seed, version, opt, coarse class), and an
// attrTable belongs to one seed. A compact comparable struct, so a probe
// allocates and formats nothing.
type attrKey struct {
	ver    string
	opt    int
	coarse string
}

// attrTable is one file's wrong-code attribution table: for each key, the
// lowest walk position (-1 for the original program, j for the j-th
// tested variant) known to show it. It lives on the filePlan, so every
// worker goroutine of a process and every slot of a fabric worker shares
// it through their common Planner; the mutex is taken once per wrong-code
// symptom, never per variant.
type attrTable struct {
	mu    sync.Mutex
	first map[attrKey]int64
}

// claim reports whether the variant at walk position pos must run the
// attribution search for k: true unless a lower position is already known
// to show k. A claiming variant records its own position before searching,
// so shards running at the same time skip. Equal positions claim again, so
// a re-executed shard reproduces its verdict.
func (a *attrTable) claim(k attrKey, pos int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.first[k]; ok && p < pos {
		return false
	}
	if a.first == nil {
		a.first = make(map[attrKey]int64)
	}
	a.first[k] = pos
	return true
}

// symRec is one symptom observed by the shard walk, tagged with its
// variant slot. Records accumulate in arrival order and are
// bucket-filled into a single shard-wide symptom arena afterwards (see
// runShardBatch), replacing a per-symptomatic-variant slice allocation.
type symRec struct {
	slot int
	s    symptom
}

// evalOriginal tests a file's unmodified seed program, walk position -1
// (before every variant). The source is parsed fresh, since a finding's
// test case must be the raw corpus bytes, and the program runs on the
// references: the tree-walking oracle on the pooled machine, then a cold
// compile per configuration (a freshly parsed program has no template
// identity to key the bytecode or IR caches on). The source is attached
// only when a symptom appears, like a variant's lazy render. cov records
// the compiler instrumentation sites the program exercises; attribution
// recompilations bypass it (see attributeWrongCode).
func evalOriginal(cfg Config, src string, be *backendState, attr *attrTable, cov *minicc.Coverage, so *shardObs) variantResult {
	file, err := cc.Parse(src)
	if err != nil {
		return variantResult{src: src}
	}
	prog, err := cc.Analyze(file)
	if err != nil {
		return variantResult{src: src}
	}
	// stage timing exists only when telemetry is attached (so != nil): with
	// telemetry off, no clock is read
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	ref := be.mach.Run(prog, interp.Config{MaxSteps: cfg.Steps})
	if so != nil {
		so.oracleNs += time.Since(t0).Nanoseconds()
	}
	if !ref.Defined() {
		return variantResult{status: statusUB}
	}
	vr := variantResult{status: statusClean}
	ecfg := minicc.ExecConfig{MaxSteps: execSteps(ref), Dispatch: cfg.BackendDispatch}
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			vr.executions++
			if so != nil {
				t0 = time.Now()
			}
			ro := (&minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}).Run(prog, ecfg)
			if so != nil {
				now := time.Now()
				so.backendNs += now.Sub(t0).Nanoseconds()
				t0 = now
			}
			if s, found := classifyOutcome(cfg, ver, opt, ref, ro, prog, attr, -1, so); found {
				vr.src = src
				vr.symptoms = append(vr.symptoms, s)
			}
			if so != nil {
				so.classifyNs += time.Since(t0).Nanoseconds()
			}
		}
	}
	return vr
}

// execSteps is the step budget of a compiled binary whose reference run
// took ref.Steps: it needs only a small multiple of the reference's step
// count, and a much larger consumption is already a hang symptom, so the
// adaptive budget keeps miscompiled infinite loops cheap to detect.
func execSteps(ref *interp.Result) int64 {
	return ref.Steps*20 + 50_000
}

// crossCheckOracle is the -paranoid assertion for the bytecode oracle:
// the two engines must agree on the whole verdict surface the campaign
// consumes — UB kind and position, limit presence, abort flag, exit
// status, stdout bytes, and (for defined runs) the step count that sizes
// the compiled binary's execution budget.
func crossCheckOracle(tree, bc *interp.Result) error {
	switch {
	case (tree.UB == nil) != (bc.UB == nil):
		return fmt.Errorf("paranoid: oracle divergence: tree UB %v, bytecode UB %v", tree.UB, bc.UB)
	case tree.UB != nil:
		if tree.UB.Kind != bc.UB.Kind || tree.UB.Pos != bc.UB.Pos {
			return fmt.Errorf("paranoid: oracle divergence: tree UB %v at %v, bytecode UB %v at %v",
				tree.UB.Kind, tree.UB.Pos, bc.UB.Kind, bc.UB.Pos)
		}
		return nil
	case (tree.Limit == nil) != (bc.Limit == nil):
		return fmt.Errorf("paranoid: oracle divergence: tree limit %v, bytecode limit %v", tree.Limit, bc.Limit)
	case tree.Limit != nil:
		return nil
	case tree.Aborted != bc.Aborted:
		return fmt.Errorf("paranoid: oracle divergence: tree aborted %v, bytecode aborted %v", tree.Aborted, bc.Aborted)
	case tree.Exit != bc.Exit:
		return fmt.Errorf("paranoid: oracle divergence: tree exit %d, bytecode exit %d", tree.Exit, bc.Exit)
	case tree.Output != bc.Output:
		return fmt.Errorf("paranoid: oracle divergence: tree output %q, bytecode output %q", tree.Output, bc.Output)
	case tree.Steps != bc.Steps:
		return fmt.Errorf("paranoid: oracle divergence: tree steps %d, bytecode steps %d", tree.Steps, bc.Steps)
	}
	return nil
}

// classifyOutcome turns one compile+run outcome into a symptom record.
// Wrong-code symptoms are attributed by selectively deactivating seeded
// bugs, once per file and key: the variant at walk position pos searches
// only when attr knows no lower position showing the same (version, opt,
// symptom class), since only the lowest one's verdict reaches the report.
func classifyOutcome(cfg Config, ver string, opt int, ref *interp.Result,
	ro *minicc.RunOutcome, prog *cc.Program, attr *attrTable, pos int64, so *shardObs) (symptom, bool) {

	out := ro.Compile
	switch {
	case out.Crash != nil:
		return symptom{Ver: ver, Opt: opt, Class: classCrash,
			BugID: out.Crash.BugID, Sig: out.Crash.Signature}, true
	case out.Timeout != nil:
		return symptom{Ver: ver, Opt: opt, Class: classPerfHang,
			BugID: attributePerf(ver, opt), Sig: "compile-time hang: " + out.Timeout.Pass}, true
	case out.Err != nil:
		return symptom{}, false // unsupported construct; not a bug signal
	}
	ex := ro.Exec
	if matchesOracle(ex, ref) {
		return symptom{}, false
	}
	// symptom classes: the detailed signature is for display; the coarse
	// class drives deduplication and attribution (the paper likewise
	// dedupes reports by symptom, not by concrete wrong values)
	coarse := "wrong-exit"
	sig := fmt.Sprintf("wrong code (exit %d, expected %d)", ex.Exit, ref.Exit)
	if ex.Exit == ref.Exit {
		coarse = "wrong-output"
		sig = fmt.Sprintf("wrong code (output %q, expected %q)", ex.Output, ref.Output)
	}
	if ex.Trap != "" {
		coarse = "trap"
		sig = "runtime trap: " + ex.Trap
	}
	if ex.Timeout {
		coarse = "hang"
		sig = "runtime hang (step budget exhausted)"
	}
	bugID := ""
	if attr.claim(attrKey{ver: ver, opt: opt, coarse: coarse}, pos) {
		bugID = attributeWrongCode(prog, ver, opt, ref, cfg)
		if so != nil {
			so.attributions++
		}
	}
	return symptom{Ver: ver, Opt: opt, Class: classMismatch,
		BugID: bugID, Sig: sig, Coarse: coarse}, true
}

// matchesOracle reports whether a compiled run agrees with a defined
// reference verdict (no UB, no limit): an aborting reference must abort,
// output aside; any other must exit cleanly with the same status and
// output. It is the one agreement check shared by classification,
// attribution, and the reducer's interestingness predicate.
func matchesOracle(ex *minicc.ExecResult, ref *interp.Result) bool {
	if ref.Aborted {
		return ex.Aborted
	}
	return ex.Ok() && ex.Exit == ref.Exit && ex.Output == ref.Output
}

// attributeWrongCode finds which single seeded bug explains a wrong-code
// symptom by deactivating active bugs one at a time — a seeded-oracle
// analogue of the paper's root-cause triage. Each try is a cold
// compile+run, which is why classifyOutcome runs it once per file and key.
func attributeWrongCode(prog *cc.Program, ver string, opt int, ref *interp.Result, cfg Config) string {
	vi := minicc.VersionIndex(ver)
	if vi < 0 {
		vi = len(minicc.Versions) - 1
	}
	full := minicc.BugsFor(vi, opt)
	for _, hook := range full.Hooks() {
		reduced := full.Without(hook)
		comp := &minicc.Compiler{Version: ver, Opt: opt, Bugs: reduced}
		ro := comp.Run(prog, minicc.ExecConfig{MaxSteps: execSteps(ref), Dispatch: cfg.BackendDispatch})
		if !ro.Compile.Ok() {
			continue
		}
		if matchesOracle(ro.Exec, ref) {
			for _, b := range minicc.Registry() {
				if b.Hook == hook {
					return b.ID
				}
			}
		}
	}
	return ""
}

// attributePerf maps a compile timeout to the active performance bug.
func attributePerf(ver string, opt int) string {
	vi := minicc.VersionIndex(ver)
	if vi < 0 {
		vi = len(minicc.Versions) - 1
	}
	set := minicc.BugsFor(vi, opt)
	for _, b := range minicc.Registry() {
		if b.Kind == minicc.BugPerformance && set.Active(b.Hook) {
			return b.ID
		}
	}
	return ""
}
