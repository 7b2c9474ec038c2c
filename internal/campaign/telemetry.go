package campaign

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"spe/internal/minicc"
	"spe/internal/obs"
	"spe/internal/refvm"
	"spe/internal/spe"
)

// Telemetry is the campaign's live observability surface: typed handles
// on every engine metric, the recent-events ring behind /events, and the
// /status snapshot. Attach one via Config.Telemetry (and ResumeTelemetry
// for resumed campaigns); nil disables instrumentation entirely.
//
// Telemetry is provably inert: every recording site is nil-guarded, all
// recording is atomic or shard-local, nothing in the engine ever reads a
// metric back, and the Report surface does not change whether telemetry
// is attached or not (the obs-equivalence tests pin byte-identical
// reports with the server and ticker on versus off). Counters are
// touched per shard, not per variant — workers accumulate into a plain
// shardObs and the aggregator folds it in at merge time — so hot-path
// overhead stays within measurement noise (recorded by BENCH_obs.json).
//
// One Telemetry may outlive a single campaign (cmd/spebench attaches the
// same instance to every experiment's campaigns): counters accumulate
// monotonically across campaigns while the progress fields (planned,
// completed, ETA) always describe the most recently started campaign.
type Telemetry struct {
	reg  *obs.Registry
	ring *obs.Ring

	variants      *obs.Counter
	variantsUB    *obs.Counter
	variantsClean *obs.Counter
	executions    *obs.Counter

	shardsDispatched *obs.Counter
	shardsMerged     *obs.Counter
	shardLatencyMs   *obs.Histogram

	stageInstantiateNs *obs.Counter
	stageOracleNs      *obs.Counter
	stageBackendNs     *obs.Counter
	stageClassifyNs    *obs.Counter

	miniccTemplateBuilds *obs.Counter
	miniccReplays        *obs.Counter
	miniccFreshLowerings *obs.Counter
	miniccThreadedRuns   *obs.Counter
	miniccSwitchRuns     *obs.Counter
	miniccBatchRuns      *obs.Counter
	miniccBatches        *obs.Counter
	miniccLoopSkips      *obs.Counter
	refvmCompiles        *obs.Counter
	refvmPatchRuns       *obs.Counter
	refvmFallbacks       *obs.Counter
	refvmThreadedRuns    *obs.Counter
	refvmSwitchRuns      *obs.Counter
	refvmBatches         *obs.Counter
	refvmCycleSkips      *obs.Counter
	refvmCounterSkips    *obs.Counter

	costNsPerVariant *obs.Gauge
	reorderPending   *obs.Gauge
	mergeLagShards   *obs.Gauge
	coverageSites    *obs.Gauge

	regionsTotal      *obs.Gauge
	regionsVisited    *obs.Gauge
	regionCurvePoints *obs.Counter

	checkpointWriteMs *obs.Histogram
	checkpointsTotal  *obs.Counter
	paranoidChecks    *obs.Counter
	attributions      *obs.Counter

	findingsCrash      *obs.Counter
	findingsWrong      *obs.Counter
	findingsPerf       *obs.Counter
	findingOccurrences *obs.Counter

	plannedVariants *obs.Gauge
	resumedVariants *obs.Gauge

	// mu guards the campaign-scoped progress state below; it is touched
	// once per campaign start plus once per coverage point, never on the
	// per-variant hot path.
	mu        sync.Mutex
	start     time.Time
	workers   int
	planned   int64
	resumed   int64
	running   bool
	curveTail []CoveragePoint
	pools     []*spe.Pool
	bpools    []*backendPool
	// regionStats snapshots the region scheduler's live per-region state
	// for /status; nil unless the current campaign runs ScheduleRegion.
	regionStats func() []RegionStatus
}

// curveTailLen bounds how many trailing coverage points /status carries.
const curveTailLen = 32

// NewTelemetry constructs the metric set. Every series the catalog
// documents is registered eagerly (label'd finding classes included), so
// /metrics exposes the full schema from the first scrape.
func NewTelemetry() *Telemetry {
	reg := obs.NewRegistry()
	t := &Telemetry{
		reg:  reg,
		ring: obs.NewRing(256),

		variants:      reg.Counter("spe_variants_total", "Variants merged into the report so far."),
		variantsUB:    reg.Counter("spe_variants_ub_total", "Variants the reference oracle filtered as undefined behavior."),
		variantsClean: reg.Counter("spe_variants_clean_total", "Variants that passed UB filtering and were differentially tested."),
		executions:    reg.Counter("spe_executions_total", "Compile+execute runs across all compiler configurations."),

		shardsDispatched: reg.Counter("spe_shards_dispatched_total", "Shard tasks handed to workers."),
		shardsMerged:     reg.Counter("spe_shards_merged_total", "Shard results merged in canonical order."),
		shardLatencyMs:   reg.Histogram("spe_shard_latency_ms", "Wall-clock per shard task, milliseconds.", obs.ExpBuckets(1, 2, 12)),

		stageInstantiateNs: reg.Counter("spe_stage_ns_total", "Per-stage wall-clock split, nanoseconds.", obs.L("stage", "instantiate")),
		stageOracleNs:      reg.Counter("spe_stage_ns_total", "Per-stage wall-clock split, nanoseconds.", obs.L("stage", "oracle")),
		stageBackendNs:     reg.Counter("spe_stage_ns_total", "Per-stage wall-clock split, nanoseconds.", obs.L("stage", "backend")),
		stageClassifyNs:    reg.Counter("spe_stage_ns_total", "Per-stage wall-clock split, nanoseconds.", obs.L("stage", "classify")),

		miniccTemplateBuilds: reg.Counter("spe_minicc_template_builds_total", "minicc IR templates lowered (once per skeleton per cache)."),
		miniccReplays:        reg.Counter("spe_minicc_replays_total", "Compilations served by IR-template trace replay."),
		miniccFreshLowerings: reg.Counter("spe_minicc_fresh_lowerings_total", "Compilations that fell back to a fresh lowering."),
		miniccThreadedRuns:   reg.Counter("spe_minicc_runs_total", "Compiled-binary executions by instruction dispatch engine.", obs.L("dispatch", "threaded")),
		miniccSwitchRuns:     reg.Counter("spe_minicc_runs_total", "Compiled-binary executions by instruction dispatch engine.", obs.L("dispatch", "switch")),
		miniccBatchRuns:      reg.Counter("spe_minicc_batch_runs_total", "Compiled-binary executions served inside a batched per-config shard walk."),
		miniccBatches:        reg.Counter("spe_minicc_batches_total", "Batched per-config shard walks (one RunBatch per configuration per shard)."),
		miniccLoopSkips:      reg.Counter("spe_minicc_loop_skips_total", "Shard-walk compiled-binary executions the loop detector cut short."),
		refvmCompiles:        reg.Counter("spe_refvm_template_compiles_total", "refvm bytecode templates compiled (once per skeleton per cache)."),
		refvmPatchRuns:       reg.Counter("spe_refvm_patch_runs_total", "Oracle runs served by patching moved holes in cached bytecode."),
		refvmFallbacks:       reg.Counter("spe_refvm_fallbacks_total", "Oracle runs that fell back to a fresh bytecode compilation."),
		refvmThreadedRuns:    reg.Counter("spe_refvm_runs_total", "Oracle runs by instruction dispatch engine.", obs.L("dispatch", "threaded")),
		refvmSwitchRuns:      reg.Counter("spe_refvm_runs_total", "Oracle runs by instruction dispatch engine.", obs.L("dispatch", "switch")),
		refvmBatches:         reg.Counter("spe_refvm_batches_total", "Batched shard oracle walks (one RunBatch per shard)."),
		refvmCycleSkips:      reg.Counter("spe_refvm_loop_skips_total", "Oracle runs the loop detector cut short, by proof.", obs.L("proof", "cycle")),
		refvmCounterSkips:    reg.Counter("spe_refvm_loop_skips_total", "Oracle runs the loop detector cut short, by proof.", obs.L("proof", "counter")),

		costNsPerVariant: reg.Gauge("spe_cost_ns_per_variant", "EWMA per-variant wall-clock cost model."),
		reorderPending:   reg.Gauge("spe_reorder_pending_shards", "Shard results buffered awaiting in-order merge."),
		mergeLagShards:   reg.Gauge("spe_merge_lag_shards", "Dispatched-but-not-yet-merged shard tasks."),
		coverageSites:    reg.Gauge("spe_coverage_sites", "Distinct minicc instrumentation sites on the coverage frontier."),

		regionsTotal:      reg.Gauge("spe_regions_total", "Scheduling regions (seed, region pairs) in the campaign plan."),
		regionsVisited:    reg.Gauge("spe_regions_visited", "Scheduling regions that have completed at least one shard."),
		regionCurvePoints: reg.Counter("spe_region_curve_points_total", "Per-region coverage-curve samples published to the event ring."),

		checkpointWriteMs: reg.Histogram("spe_checkpoint_write_ms", "Checkpoint write latency, milliseconds.", obs.ExpBuckets(0.25, 2, 12)),
		checkpointsTotal:  reg.Counter("spe_checkpoints_total", "Checkpoint files written."),
		paranoidChecks:    reg.Counter("spe_paranoid_checks_total", "-paranoid cross-checks performed: two per tested program."),
		attributions:      reg.Counter("spe_attributions_total", "Wrong-code attribution searches run (bug-by-bug cold recompilations of one variant)."),

		findingsCrash:      reg.Counter("spe_findings_total", "Deduplicated findings by class.", obs.L("class", "crash")),
		findingsWrong:      reg.Counter("spe_findings_total", "Deduplicated findings by class.", obs.L("class", "wrong-code")),
		findingsPerf:       reg.Counter("spe_findings_total", "Deduplicated findings by class.", obs.L("class", "performance")),
		findingOccurrences: reg.Counter("spe_finding_occurrences_total", "Variant-level symptom occurrences collapsed into findings."),

		plannedVariants: reg.Gauge("spe_campaign_planned_variants", "Variants the current campaign will test in total."),
		resumedVariants: reg.Gauge("spe_campaign_resumed_variants", "Variants restored from the checkpoint at resume."),
	}
	t.reg.GaugeFunc("spe_space_pool_hits", "spe.Space pool checkouts served by a recycled Space.", func() float64 {
		h, _ := t.spacePoolStats()
		return float64(h)
	})
	t.reg.GaugeFunc("spe_space_pool_misses", "spe.Space pool checkouts that built a fresh Space.", func() float64 {
		_, m := t.spacePoolStats()
		return float64(m)
	})
	t.reg.GaugeFunc("spe_backend_pool_hits", "backendState pool checkouts served by a recycled state.", func() float64 {
		h, _ := t.backendPoolStats()
		return float64(h)
	})
	t.reg.GaugeFunc("spe_backend_pool_misses", "backendState pool checkouts that built fresh backends.", func() float64 {
		_, m := t.backendPoolStats()
		return float64(m)
	})
	return t
}

// Registry exposes the underlying metric registry (for /metrics and for
// embedding the campaign metrics into a larger process's registry-less
// scrape).
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// Ring exposes the recent-events ring behind /events.
func (t *Telemetry) Ring() *obs.Ring { return t.ring }

// Handler returns the HTTP surface: /metrics, /status, /events, and
// /debug/pprof/*. Serve it with obs.Serve (the -status-addr flag).
func (t *Telemetry) Handler() http.Handler {
	return obs.Handler(t.reg, t.ring, func() interface{} { return t.Status() })
}

// spacePoolStats sums hit/miss counters across the current campaign's
// spe.Space pools (scrape-time collection; zero hot-path mirroring).
func (t *Telemetry) spacePoolStats() (hits, misses int64) {
	t.mu.Lock()
	pools := t.pools
	t.mu.Unlock()
	for _, p := range pools {
		h, m := p.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// backendPoolStats is spacePoolStats for the backendState pools.
func (t *Telemetry) backendPoolStats() (hits, misses int64) {
	t.mu.Lock()
	bpools := t.bpools
	t.mu.Unlock()
	for _, p := range bpools {
		h, m := p.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}

// campaignStarted records the new campaign's shape: planned and
// already-merged (resumed) variant totals, the worker count the ETA
// model divides by, and the pools the scrape-time gauges read.
func (t *Telemetry) campaignStarted(cfg Config, all []*task, startSeq int) {
	if t == nil {
		return
	}
	var planned, resumed int64
	var pools []*spe.Pool
	var bpools []*backendPool
	for _, tk := range all {
		n := tk.toJ - tk.fromJ
		if tk.includeOriginal {
			n++
		}
		planned += n
		if tk.seq < startSeq {
			resumed += n
		}
		if tk.newFile {
			if tk.plan.pool != nil {
				pools = append(pools, tk.plan.pool)
			}
			if tk.plan.backends != nil {
				bpools = append(bpools, tk.plan.backends)
			}
		}
	}
	t.mu.Lock()
	t.start = time.Now()
	t.workers = cfg.Workers
	t.planned = planned
	t.resumed = resumed
	t.running = true
	t.curveTail = nil
	t.pools = pools
	t.bpools = bpools
	t.mu.Unlock()
	t.plannedVariants.Set(float64(planned))
	t.resumedVariants.Set(float64(resumed))
	t.ring.Publish("campaign", map[string]interface{}{
		"state":            "started",
		"planned_variants": planned,
		"resumed_variants": resumed,
		"workers":          cfg.Workers,
		"schedule":         cfg.Schedule,
	})
}

// campaignDone marks the campaign finished.
func (t *Telemetry) campaignDone() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.running = false
	t.mu.Unlock()
	t.ring.Publish("campaign", map[string]interface{}{"state": "done"})
}

// observeDispatch records one shard task handed out.
func (t *Telemetry) observeDispatch() {
	if t == nil {
		return
	}
	t.shardsDispatched.Inc()
}

// observeMerge folds one merged shard result into the counters. Called
// from the aggregator in canonical merge order, so the event stream and
// counters advance exactly as the report does.
func (t *Telemetry) observeMerge(r *taskResult) {
	if t == nil {
		return
	}
	t.shardsMerged.Inc()
	if r.ranVariants > 0 {
		t.shardLatencyMs.Observe(float64(r.elapsedNs) / 1e6)
	}
	var ub, clean, execs int64
	for i := range r.variants {
		switch r.variants[i].status {
		case statusUB:
			ub++
		case statusClean:
			clean++
		}
		execs += int64(r.variants[i].executions)
	}
	t.variants.Add(int64(len(r.variants)))
	t.variantsUB.Add(ub)
	t.variantsClean.Add(clean)
	t.executions.Add(execs)
	if so := r.obs; so != nil {
		t.stageInstantiateNs.Add(so.instNs)
		t.stageOracleNs.Add(so.oracleNs)
		t.stageBackendNs.Add(so.backendNs)
		t.stageClassifyNs.Add(so.classifyNs)
		t.paranoidChecks.Add(so.paranoidChecks)
		t.attributions.Add(so.attributions)
		t.miniccTemplateBuilds.Add(so.minicc.TemplateBuilds)
		t.miniccReplays.Add(so.minicc.Replays)
		t.miniccFreshLowerings.Add(so.minicc.FreshLowerings)
		t.miniccThreadedRuns.Add(so.minicc.ThreadedRuns)
		t.miniccSwitchRuns.Add(so.minicc.SwitchRuns)
		t.miniccBatchRuns.Add(so.minicc.BatchRuns)
		t.miniccBatches.Add(so.minicc.Batches)
		t.miniccLoopSkips.Add(so.minicc.LoopSkips)
		t.refvmCompiles.Add(so.refvm.TemplateCompiles)
		t.refvmPatchRuns.Add(so.refvm.PatchRuns)
		t.refvmFallbacks.Add(so.refvm.Fallbacks)
		t.refvmThreadedRuns.Add(so.refvm.ThreadedRuns)
		t.refvmSwitchRuns.Add(so.refvm.SwitchRuns)
		t.refvmBatches.Add(so.refvm.Batches)
		t.refvmCycleSkips.Add(so.refvm.CycleSkips)
		t.refvmCounterSkips.Add(so.refvm.CounterSkips)
	}
}

// observeAggregator tracks the reorder buffer and merge lag after each
// arrival is processed.
func (t *Telemetry) observeAggregator(pending int) {
	if t == nil {
		return
	}
	t.reorderPending.Set(float64(pending))
	t.mergeLagShards.Set(float64(t.shardsDispatched.Load() - t.shardsMerged.Load()))
}

// observeSteering samples the scheduler's EWMA cost model and coverage
// frontier after a shard observation; when the frontier grew, the new
// coverage point is published to the event stream and kept in the
// /status curve tail. rp, non-nil only under the region policy when the
// shard pushed its own region's frontier, streams the per-region
// coverage curve to the event ring.
func (t *Telemetry) observeSteering(costNs float64, point CoveragePoint, novel bool, rp *RegionCoveragePoint) {
	if t == nil {
		return
	}
	t.costNsPerVariant.Set(costNs)
	if rp != nil {
		t.regionCurvePoints.Inc()
		t.ring.Publish("region_coverage", rp)
	}
	if !novel {
		return
	}
	t.coverageSites.Set(float64(point.Sites))
	t.mu.Lock()
	t.curveTail = append(t.curveTail, point)
	if len(t.curveTail) > curveTailLen {
		t.curveTail = t.curveTail[len(t.curveTail)-curveTailLen:]
	}
	t.mu.Unlock()
	t.ring.Publish("coverage", point)
}

// attachRegions hooks the region scheduler's live state into /status and
// the spe_region_* gauges. A no-op unless the campaign runs
// ScheduleRegion; the scheduler callback is scrape-time only (never on
// the variant hot path).
func (t *Telemetry) attachRegions(cfg Config, sched *scheduler) {
	if t == nil {
		return
	}
	if cfg.Schedule != ScheduleRegion {
		t.mu.Lock()
		t.regionStats = nil
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	t.regionStats = sched.regionStatuses
	t.mu.Unlock()
	t.regionsTotal.Set(float64(len(sched.units)))
}

// observeCheckpoint records one checkpoint write.
func (t *Telemetry) observeCheckpoint(nextSeq int, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.checkpointsTotal.Inc()
	t.checkpointWriteMs.Observe(float64(elapsed.Nanoseconds()) / 1e6)
	t.ring.Publish("checkpoint", map[string]interface{}{
		"next_seq": nextSeq,
		"ms":       float64(elapsed.Nanoseconds()) / 1e6,
	})
}

// observeFinding records a finding event. created marks the first
// occurrence (a new deduplicated finding); later occurrences only bump
// the occurrence counter.
func (t *Telemetry) observeFinding(fd *Finding, created bool) {
	if t == nil {
		return
	}
	t.findingOccurrences.Inc()
	if !created {
		return
	}
	class := findingClass(fd.Kind)
	switch fd.Kind {
	case minicc.BugCrash:
		t.findingsCrash.Inc()
	case minicc.BugWrongCode:
		t.findingsWrong.Inc()
	default:
		t.findingsPerf.Inc()
	}
	t.ring.Publish("finding", map[string]interface{}{
		"class":     class,
		"bug_id":    fd.BugID,
		"signature": fd.Signature,
		"seed":      fd.SeedIndex,
	})
}

// findingClass maps a bug kind to its metric label.
func findingClass(k minicc.BugKind) string {
	switch k {
	case minicc.BugCrash:
		return "crash"
	case minicc.BugWrongCode:
		return "wrong-code"
	default:
		return "performance"
	}
}

// Status is the /status document: the campaign's vital signs.
type Status struct {
	Running        bool      `json:"running"`
	StartTime      time.Time `json:"start_time"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	// PlannedVariants is the campaign's total variant schedule;
	// CompletedVariants counts merged variants including the resumed
	// prefix restored from a checkpoint.
	PlannedVariants   int64   `json:"planned_variants"`
	CompletedVariants int64   `json:"completed_variants"`
	ResumedVariants   int64   `json:"resumed_variants"`
	ProgressPercent   float64 `json:"progress_percent"`
	VariantsPerSec    float64 `json:"variants_per_sec"`
	// ETASeconds derives from the scheduler's EWMA per-variant cost model
	// divided across the worker pool; when the model has not learned yet
	// it falls back to the observed throughput.
	ETASeconds       float64 `json:"eta_seconds"`
	CostNsPerVariant float64 `json:"cost_ns_per_variant"`

	Findings struct {
		Crash       int64 `json:"crash"`
		WrongCode   int64 `json:"wrong_code"`
		Performance int64 `json:"performance"`
		Occurrences int64 `json:"occurrences"`
	} `json:"findings"`

	CoverageSites     int64           `json:"coverage_sites"`
	CoverageCurveTail []CoveragePoint `json:"coverage_curve_tail,omitempty"`

	// Regions is the region scheduler's live per-region steering state
	// (score, frontier size, EWMA cost, pending shards); present only
	// when the campaign runs -schedule=region.
	Regions []RegionStatus `json:"regions,omitempty"`

	Shards struct {
		Dispatched int64 `json:"dispatched"`
		Merged     int64 `json:"merged"`
		Pending    int64 `json:"pending"`
	} `json:"shards"`
}

// Status assembles the current campaign snapshot.
func (t *Telemetry) Status() Status {
	t.mu.Lock()
	start := t.start
	workers := t.workers
	planned := t.planned
	resumed := t.resumed
	running := t.running
	tail := append([]CoveragePoint(nil), t.curveTail...)
	regionStats := t.regionStats
	t.mu.Unlock()

	var s Status
	s.Running = running
	s.StartTime = start
	if !start.IsZero() {
		s.ElapsedSeconds = time.Since(start).Seconds()
	}
	s.PlannedVariants = planned
	s.ResumedVariants = resumed
	s.CompletedVariants = resumed + t.variants.Load()
	if planned > 0 {
		s.ProgressPercent = 100 * float64(s.CompletedVariants) / float64(planned)
	}
	if s.ElapsedSeconds > 0 {
		s.VariantsPerSec = float64(s.CompletedVariants-resumed) / s.ElapsedSeconds
	}
	s.CostNsPerVariant = t.costNsPerVariant.Load()
	remaining := planned - s.CompletedVariants
	if remaining > 0 {
		if s.CostNsPerVariant > 0 && workers > 0 {
			s.ETASeconds = float64(remaining) * s.CostNsPerVariant / 1e9 / float64(workers)
		} else if s.VariantsPerSec > 0 {
			s.ETASeconds = float64(remaining) / s.VariantsPerSec
		}
	}
	s.Findings.Crash = t.findingsCrash.Load()
	s.Findings.WrongCode = t.findingsWrong.Load()
	s.Findings.Performance = t.findingsPerf.Load()
	s.Findings.Occurrences = t.findingOccurrences.Load()
	s.CoverageSites = int64(t.coverageSites.Load())
	s.CoverageCurveTail = tail
	s.Shards.Dispatched = t.shardsDispatched.Load()
	s.Shards.Merged = t.shardsMerged.Load()
	s.Shards.Pending = s.Shards.Dispatched - s.Shards.Merged
	if regionStats != nil {
		s.Regions = regionStats()
		visited := 0
		for _, r := range s.Regions {
			if r.Variants > 0 {
				visited++
			}
		}
		t.regionsVisited.Set(float64(visited))
	}
	return s
}

// ProgressLine renders the one-line stderr ticker.
func (t *Telemetry) ProgressLine() string {
	s := t.Status()
	findings := s.Findings.Crash + s.Findings.WrongCode + s.Findings.Performance
	return fmt.Sprintf("spe: %5.1f%% | %d/%d variants | %.0f/s | eta %s | findings %d | coverage %d sites",
		s.ProgressPercent, s.CompletedVariants, s.PlannedVariants, s.VariantsPerSec,
		formatETA(s.ETASeconds), findings, s.CoverageSites)
}

func formatETA(sec float64) string {
	if sec <= 0 {
		return "-"
	}
	return (time.Duration(sec*float64(time.Second)) / time.Second * time.Second).String()
}

// StartProgressTicker prints ProgressLine to w every interval until the
// returned stop function runs (stop is idempotent). The ticker writes
// only to w — attach it to stderr so report stdout stays byte-identical.
func (t *Telemetry) StartProgressTicker(w io.Writer, every time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				fmt.Fprintln(w, t.ProgressLine())
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// shardObs accumulates one shard task's telemetry locally: plain ints
// the worker bumps per variant, folded into the shared atomic counters
// exactly once at merge time. A nil *shardObs (telemetry disabled) skips
// all timing — the hot path then contains no time.Now calls at all.
type shardObs struct {
	instNs, oracleNs, backendNs, classifyNs int64
	paranoidChecks, attributions            int64
	miniccBase                              minicc.CacheStats
	refvmBase                               refvm.CacheStats
	minicc                                  minicc.CacheStats
	refvm                                   refvm.CacheStats
}
