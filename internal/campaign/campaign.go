// Package campaign is the parallel, sharded core of the paper's evaluation
// loop (§5): derive a skeleton from each corpus program, enumerate its
// non-alpha-equivalent variants, filter out variants with undefined
// behavior using the reference interpreter, feed the clean variants to the
// compilers under test at several optimization levels, and classify every
// divergence from the reference semantics as a crash, wrong-code, or
// performance bug.
//
// The enumerate→filter→test pipeline is embarrassingly parallel once the
// variant space can be indexed, and the partition layer's rank/unrank
// machinery provides exactly that index: each corpus file's canonical
// variant space is cut into contiguous shards that a worker pool processes
// independently, while a deterministic aggregator merges shard results in
// canonical enumeration order. Any worker count therefore produces a
// byte-identical Report — Workers=1 reproduces the historical sequential
// harness output exactly. Long campaigns additionally write periodic JSON
// checkpoints from which Resume continues after a crash or kill.
//
// Concurrency and ownership inside a worker: shared inputs (corpus text,
// skeletons, analyzed template programs' symbols/scopes/types) are
// immutable; everything a worker mutates is checked out for exclusive use
// per shard task — a spe.Space (enumeration state + AST instances) and a
// backendState (interp.Machine, refvm.Cache, minicc.Cache) from the
// file's pools. Within a task the worker may reuse all of it across
// variants; across tasks the pools recycle it. Nothing checked out is
// ever retained past the task: results travel to the aggregator as plain
// values (symptom records, rendered source strings), never as references
// into pooled state.
package campaign

import (
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"strings"

	"spe/internal/minicc"
	"spe/internal/refvm"
	"spe/internal/spe"
)

// Config parameterizes a campaign.
type Config struct {
	// Corpus is the seed program population.
	Corpus []string
	// Versions lists the simulated compiler versions under test (names
	// from minicc.Versions); defaults to {"trunk"}.
	Versions []string
	// OptLevels defaults to {0, 1, 2, 3}.
	OptLevels []int
	// Threshold is the per-file variant cap (paper: 10,000). Zero means
	// 10,000; negative means unlimited.
	Threshold int64
	// MaxVariantsPerFile additionally bounds how many enumerated variants
	// are executed per file (budget control); zero means the threshold.
	MaxVariantsPerFile int
	// Granularity of the enumeration; defaults to intra-procedural.
	Granularity spe.Granularity
	// Steps bounds each execution.
	Steps int64
	// ReduceTestCases post-processes each finding's sample test case with
	// the delta-debugging reducer, as the paper does before filing (§6).
	ReduceTestCases bool
	// Workers sizes the shard worker pool; zero means GOMAXPROCS. Every
	// worker count yields a byte-identical Report: shard results are
	// merged in canonical enumeration order by a single aggregator.
	Workers int
	// ShardSize is the number of tested variants carried by one shard
	// task; zero means 32.
	ShardSize int
	// CheckpointPath, when non-empty, enables periodic JSON checkpoints
	// from which Resume can continue an interrupted campaign.
	CheckpointPath string
	// CheckpointEvery is the number of merged shard tasks between
	// checkpoint writes; zero means 8.
	CheckpointEvery int
	// Schedule selects the shard dispatch policy: ScheduleFIFO (the
	// default) dispatches shards in canonical enumeration order;
	// ScheduleCoverage re-orders pending shards by expected coverage
	// novelty — corpus files whose recent shards hit new minicc
	// instrumentation sites are drained first, stale files decay; and
	// ScheduleRegion applies the same novelty model per region (contiguous
	// hole-group ranges of one file's walk, derived from the skeleton's
	// per-function partition counts), so large multi-function files steer
	// internally instead of draining as one block. The dispatch order
	// never affects the Report: the aggregator always merges in canonical
	// order, so fifo and coverage campaigns produce identical findings.
	Schedule string
	// Lookahead bounds how far (in shard tasks) the scheduler may dispatch
	// ahead of the aggregator's merge cursor, which also bounds the reorder
	// buffer's memory. Zero means 256, raised to 8*Workers if smaller.
	Lookahead int
	// TargetShardMillis, when positive, enables adaptive shard sizing: the
	// engine tracks per-variant wall-clock cost and batches consecutive
	// shard dispatches toward this target duration, evening out worker tail
	// latency. Batching never changes task identity, but note that when
	// ShardSize is left zero this flag picks a finer default grain (4
	// instead of 32) so batches can size in both directions — set ShardSize
	// explicitly if checkpoint seq numbering must match a run without the
	// flag. A checkpoint embeds its resolved config, so resume is always
	// self-consistent either way.
	TargetShardMillis int
	// CoverageCurve records the coverage-over-time curve (Report.
	// CoverageCurve) even under ScheduleFIFO. Coverage collection is
	// otherwise skipped for fifo campaigns, sparing the VM instrumentation
	// cost when nothing consumes the data; ScheduleCoverage and
	// ScheduleRegion imply it.
	CoverageCurve bool
	// Paranoid cross-checks the hot path on every variant: holes are
	// rebound with the sema invariants asserted, and the typed program is
	// rendered, re-parsed, re-analyzed, and required to bind every variable
	// use to the same symbol the in-place instantiation chose; every
	// bytecode oracle verdict is checked against the tree-walking
	// interpreter (stdout bytes, exit status, UB kind and position, step
	// count); and every template-derived lowering is checked against a
	// fresh Lower of the variant. A divergence aborts the campaign with an
	// error naming the variant. This is a debug/validation mode — it
	// deliberately pays the full front-end, tree-walker, and lowering cost
	// per variant on top of the hot path.
	Paranoid bool
	// Dispatch selects the bytecode oracle's instruction dispatch engine:
	// DispatchThreaded (the default) executes through refvm's
	// per-instruction function-pointer handler table, built at skeleton
	// compile time with superinstruction fusion and compile-time-provable
	// operand specialization; DispatchSwitch is the monolithic opcode
	// switch. The two engines are observationally identical — same UB
	// verdicts, output bytes, exit statuses, and step counts, so reports
	// are byte-identical either way (pinned by the dispatch-equivalence
	// tests) — and the knob exists as the benchmark baseline and for
	// bisecting suspected dispatch bugs.
	Dispatch string
	// BackendDispatch selects the minicc VM's instruction dispatch engine
	// for the compiled binaries under test: BackendDispatchThreaded (the
	// default) executes the superinstruction-fused IR through a per-opcode
	// handler table, BackendDispatchSwitch is the monolithic opcode switch
	// running the same fused code. The two engines are observationally
	// identical — same seeded crashes, coverage hits, trap/exit/output
	// verdicts, and step accounting — so reports are byte-identical either
	// way (pinned by the backend-dispatch-equivalence tests); the knob
	// exists as the benchmark baseline and for bisecting suspected
	// dispatch bugs.
	BackendDispatch string
	// Telemetry, when non-nil, streams live campaign vitals: per-stage
	// timing splits, pool and cache hit rates, shard latency, coverage
	// frontier growth, findings by class — served over HTTP by
	// Telemetry.Handler (/metrics, /status, /events, /debug/pprof/) and
	// the stderr progress ticker. Telemetry is strictly observational and
	// provably inert: reports are byte-identical with it attached or nil
	// (pinned by the obs-equivalence tests), and it is never persisted in
	// checkpoints (a resume attaches a fresh instance via
	// ResumeTelemetry).
	Telemetry *Telemetry `json:"-"`
}

// Schedule values for Config.Schedule.
const (
	ScheduleFIFO     = "fifo"
	ScheduleCoverage = "coverage"
	ScheduleRegion   = "region"
)

// Dispatch values for Config.Dispatch (aliases of refvm's, so the flag
// surface and the oracle agree by construction).
const (
	DispatchThreaded = refvm.DispatchThreaded
	DispatchSwitch   = refvm.DispatchSwitch
)

// BackendDispatch values for Config.BackendDispatch (aliases of minicc's,
// so the flag surface and the backend VM agree by construction).
const (
	BackendDispatchThreaded = minicc.DispatchThreaded
	BackendDispatchSwitch   = minicc.DispatchSwitch
)

func (c Config) withDefaults() Config {
	if len(c.Versions) == 0 {
		c.Versions = []string{"trunk"}
	}
	if len(c.OptLevels) == 0 {
		c.OptLevels = []int{0, 1, 2, 3}
	}
	if c.Threshold == 0 {
		c.Threshold = 10_000
	}
	if c.MaxVariantsPerFile == 0 {
		c.MaxVariantsPerFile = int(c.Threshold)
	}
	if c.Steps == 0 {
		c.Steps = 500_000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardSize <= 0 {
		if c.TargetShardMillis > 0 {
			// adaptive sizing groups micro-shards toward the duration
			// target; a finer default grain lets it size both down and up
			c.ShardSize = 4
		} else {
			c.ShardSize = 32
		}
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.Schedule == "" {
		c.Schedule = ScheduleFIFO
	}
	if c.Dispatch == "" {
		c.Dispatch = DispatchThreaded
	}
	if c.BackendDispatch == "" {
		c.BackendDispatch = BackendDispatchThreaded
	}
	if c.Lookahead <= 0 {
		c.Lookahead = 256
	}
	if c.Lookahead < 8*c.Workers {
		c.Lookahead = 8 * c.Workers
	}
	return c
}

// collectCoverage reports whether workers should record compiler coverage:
// the coverage schedule steers by it, and CoverageCurve requests the curve
// telemetry under fifo. Otherwise recording is skipped — per-instruction VM
// instrumentation is not free, and a fifo campaign would discard the data.
func (c Config) collectCoverage() bool {
	return c.Schedule == ScheduleCoverage || c.Schedule == ScheduleRegion || c.CoverageCurve
}

// Finding is one deduplicated bug discovery.
type Finding struct {
	// BugID is the seeded bug's simulated bugzilla number ("" when the
	// symptom could not be attributed).
	BugID string
	Kind  minicc.BugKind
	// Signature identifies crash findings (Table 3).
	Signature string
	Component string
	Priority  int
	// OptLevels lists the optimization levels at which the symptom
	// appeared.
	OptLevels []int
	// Versions lists the affected versions observed.
	Versions []string
	// TestCase is a minimal sample variant source triggering the bug.
	TestCase string
	// SeedIndex is the corpus file whose skeleton produced the test case.
	SeedIndex int
	// Occurrences counts variant-level duplicates collapsed into this
	// finding.
	Occurrences int
}

func (f *Finding) key() string {
	if f.BugID != "" {
		return "id:" + f.BugID
	}
	return "sig:" + f.Signature
}

// Stats aggregates campaign-level counters.
type Stats struct {
	Files          int
	FilesSkipped   int // over threshold
	Variants       int
	VariantsUB     int // filtered by the reference interpreter
	VariantsClean  int
	Executions     int
	CrashFindings  int
	WrongFindings  int
	PerfFindings   int
	NaiveTotal     *big.Int
	CanonicalTotal *big.Int
}

// PlanInfo summarizes one corpus file's derived testing schedule — in
// particular how much of the canonical space the stride walk actually
// covers, which used to be invisible when the stride clamp engaged.
type PlanInfo struct {
	SeedIndex int
	// Canonical is the file's canonical variant count (decimal string; the
	// count can exceed int64).
	Canonical string
	// Stride is the sampling stride the walk uses; UnclampedStride is what
	// the per-file budget alone would have chosen (a decimal string, since
	// canonical/budget can exceed int64). They differ exactly when the
	// walk-bound clamp engaged (Clamped), in which case only Tested*Stride
	// of the canonical space is reachable and the rest is silently out of
	// coverage — the clamp trades breadth for a bounded walk over huge
	// sets, and this record is what makes that trade visible.
	Stride          int64
	UnclampedStride string
	Tested          int64
	Clamped         bool
	// Skipped marks files over the canonical-count threshold (no variants
	// walked at all).
	Skipped bool
	// Regions is how many scheduling regions the file's walk was cut into
	// (spe.Space.RegionCuts; 1 means one opaque region). Advisory dispatch
	// metadata — task identity and findings never depend on it.
	Regions int
}

// CoveragePoint is one step of a campaign's coverage-over-time curve: after
// Variants tested variants had completed (in completion order), Sites
// distinct minicc instrumentation sites had been hit.
type CoveragePoint struct {
	Variants int
	Sites    int
}

// Report is the campaign outcome.
type Report struct {
	Config   Config
	Findings []*Finding
	Stats    Stats
	// Plans records each corpus file's testing schedule. It is a pure
	// function of Config (re-derived on resume, never checkpointed), so it
	// is part of the deterministic report surface: Format prints the files
	// whose stride was clamped.
	Plans []PlanInfo
	// CoverageCurve records frontier growth in shard completion order. It
	// is scheduling telemetry, not part of the deterministic report: the
	// curve depends on worker timing and dispatch policy (that sensitivity
	// is the point — it is how fifo and coverage schedules are compared),
	// so Format deliberately excludes it.
	CoverageCurve []CoveragePoint
}

// VariantsToSites returns how many variants had completed when the
// coverage frontier first reached n sites, or -1 if it never did.
func (r *Report) VariantsToSites(n int) int {
	for _, p := range r.CoverageCurve {
		if p.Sites >= n {
			return p.Variants
		}
	}
	return -1
}

// FinalSites returns the final coverage frontier size.
func (r *Report) FinalSites() int {
	if len(r.CoverageCurve) == 0 {
		return 0
	}
	return r.CoverageCurve[len(r.CoverageCurve)-1].Sites
}

// FormatCoverageCurve renders the curve for human consumption.
func (r *Report) FormatCoverageCurve() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "coverage curve (%s schedule): %d sites final\n", r.Config.Schedule, r.FinalSites())
	for _, p := range r.CoverageCurve {
		fmt.Fprintf(&sb, "  %6d variants -> %3d sites\n", p.Variants, p.Sites)
	}
	return sb.String()
}

// Format renders the report as deterministic text: identical campaigns
// produce byte-identical output regardless of worker count or
// interruption/resume history, which makes it the comparison key for the
// engine's determinism guarantees.
func (r *Report) Format() string {
	var sb strings.Builder
	st := r.Stats
	fmt.Fprintf(&sb, "campaign: %d files (%d skipped), %d variants (%d UB, %d clean), %d executions\n",
		st.Files, st.FilesSkipped, st.Variants, st.VariantsUB, st.VariantsClean, st.Executions)
	fmt.Fprintf(&sb, "space: naive %s, canonical %s\n", st.NaiveTotal, st.CanonicalTotal)
	for _, p := range r.Plans {
		if !p.Clamped {
			continue
		}
		fmt.Fprintf(&sb, "plan: file %d stride clamped %s -> %d (walked %d of %s canonical variants)\n",
			p.SeedIndex, p.UnclampedStride, p.Stride, p.Tested, p.Canonical)
	}
	fmt.Fprintf(&sb, "findings: %d crash, %d wrong-code, %d performance\n",
		st.CrashFindings, st.WrongFindings, st.PerfFindings)
	for _, fd := range r.Findings {
		fmt.Fprintf(&sb, "  [%s] id=%q sig=%q opts=%v versions=%v seed=%d occurrences=%d\n",
			fd.Kind, fd.BugID, fd.Signature, fd.OptLevels, fd.Versions, fd.SeedIndex, fd.Occurrences)
	}
	return sb.String()
}

// sortFindings orders findings the way the sequential harness always has:
// by kind, then by dedup key (total, since keys are unique).
func sortFindings(findings []*Finding) {
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Kind != findings[j].Kind {
			return findings[i].Kind < findings[j].Kind
		}
		return findings[i].key() < findings[j].key()
	})
}
