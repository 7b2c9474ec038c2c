package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"spe/internal/minicc"
)

// The remote bridge is the campaign engine split at its natural seam for
// distribution: everything above the shard boundary (plan derivation,
// dispatch steering, the seq-ordered merge, checkpointing) stays on the
// coordinator in a RemoteEngine, and everything below it (instantiation,
// oracle, compilers, classification) runs wherever a Planner lives. The
// two halves communicate only through TaskSpec and ShardResult — plain
// serializable values — so any transport (internal/fabric's HTTP service,
// a loopback in tests) can carry them without touching determinism: the
// shard task sequence is a pure function of Config, every worker derives
// the identical plan from the same Config, every part of a shard's result
// the merge reads is a pure function of its TaskSpec, and the merge
// consumes results strictly in seq order. Crashed, duplicated, reordered,
// or re-executed shards therefore cannot change the Report, and Deliver
// accepts each seq exactly once. A re-executed shard may differ only in
// the BugID of a wrong-code symptom the merge discards: the Planner's
// per-file attribution table lets a variant skip the search once a
// lower-positioned variant of its file has claimed the key (attrTable).

// TaskSpec is the serializable identity of one shard task: enough for a
// remote worker to locate the task in its own (identically derived) plan
// and for the coordinator to validate the result's provenance. It carries
// no corpus text or derived state — both sides reconstruct those from the
// shared Config.
type TaskSpec struct {
	Seq             int   `json:"seq"`
	SeedIdx         int   `json:"seed"`
	NewFile         bool  `json:"new_file,omitempty"`
	IncludeOriginal bool  `json:"include_original,omitempty"`
	FromJ           int64 `json:"from_j"`
	ToJ             int64 `json:"to_j"`
	// Region is the task's scheduling region (plan.regionOf of FromJ).
	// Both sides derive it from the same plan, so it agrees by
	// construction; it rides the wire so the drift check covers the
	// region cuts too.
	Region int `json:"region,omitempty"`
}

// specOf exports a task's wire identity.
func specOf(t *task) TaskSpec {
	return TaskSpec{
		Seq:             t.seq,
		SeedIdx:         t.plan.seedIdx,
		NewFile:         t.newFile,
		IncludeOriginal: t.includeOriginal,
		FromJ:           t.fromJ,
		ToJ:             t.toJ,
		Region:          t.region,
	}
}

// Symptom is the wire form of one compiler-configuration divergence
// record (an alias of the engine's internal symptom type; every field is
// exported, so it serializes as-is).
type Symptom = symptom

// VariantOutcome is the wire form of one tested variant's outcome.
type VariantOutcome struct {
	// Status is the variantStatus ordinal (parse-fail / UB / clean).
	Status     int       `json:"st"`
	Executions int       `json:"ex,omitempty"`
	Src        string    `json:"src,omitempty"`
	Symptoms   []Symptom `json:"sym,omitempty"`
}

// ShardResult is the serializable outcome of one shard task — exactly the
// data the aggregator consumes at merge time plus the scheduler's steering
// feedback (coverage sites, wall-clock cost). Worker-local telemetry
// accumulators deliberately do not cross the wire: stage-timing splits
// describe the machine that ran the shard, not the campaign.
type ShardResult struct {
	Seq         int              `json:"seq"`
	SeedIdx     int              `json:"seed"`
	Variants    []VariantOutcome `json:"variants,omitempty"`
	Sites       minicc.Snapshot  `json:"sites,omitempty"`
	ElapsedNs   int64            `json:"elapsed_ns"`
	RanVariants int              `json:"ran_variants"`
}

// validate rejects config values the engine would reject, shared by the
// in-process engine and both remote halves so a coordinator and its
// workers fail identically on a bad config.
func (c Config) validate() error {
	if c.Schedule != ScheduleFIFO && c.Schedule != ScheduleCoverage && c.Schedule != ScheduleRegion {
		return fmt.Errorf("campaign: unknown schedule %q (want %q, %q, or %q)",
			c.Schedule, ScheduleFIFO, ScheduleCoverage, ScheduleRegion)
	}
	if c.Dispatch != DispatchThreaded && c.Dispatch != DispatchSwitch {
		return fmt.Errorf("campaign: unknown dispatch %q (want %q or %q)",
			c.Dispatch, DispatchThreaded, DispatchSwitch)
	}
	if c.BackendDispatch != BackendDispatchThreaded && c.BackendDispatch != BackendDispatchSwitch {
		return fmt.Errorf("campaign: unknown backend dispatch %q (want %q or %q)",
			c.BackendDispatch, BackendDispatchThreaded, BackendDispatchSwitch)
	}
	return nil
}

// Planner is the worker half of the remote bridge: the full shard task
// sequence derived locally from the shared Config (parse, analyze,
// skeletonize, pool — each corpus file once), plus RunSpec to execute any
// task by its TaskSpec through the exact code path in-process workers use
// (pooled Spaces and backends, batched shard execution, paranoid
// cross-checks). Planners are safe for concurrent RunSpec calls: per-task
// mutable state is checked out of the per-file pools.
type Planner struct {
	cfg   Config
	bySeq []*task
}

// NewPlanner derives the plan a coordinator with the same Config derives.
// The Config should come off the wire from the coordinator (fabric's join
// handshake), so both sides agree byte-for-byte by construction.
func NewPlanner(cfg Config) (*Planner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	all, err := buildAllTasks(cfg)
	if err != nil {
		return nil, err
	}
	return &Planner{cfg: cfg, bySeq: all}, nil
}

// Config returns the resolved campaign config the plan was derived from.
func (p *Planner) Config() Config { return p.cfg }

// TotalTasks returns the number of shard tasks in the plan.
func (p *Planner) TotalTasks() int { return len(p.bySeq) }

// RunSpec executes the shard task named by spec and returns its
// serializable result. The spec must match the locally derived task
// identity exactly — a mismatch means the coordinator and worker disagree
// on the plan (diverged corpus or config), which would silently corrupt
// the merge, so it is an error instead.
func (p *Planner) RunSpec(ctx context.Context, spec TaskSpec) (*ShardResult, error) {
	if spec.Seq < 0 || spec.Seq >= len(p.bySeq) {
		return nil, fmt.Errorf("campaign: remote task seq %d out of range (plan has %d tasks)", spec.Seq, len(p.bySeq))
	}
	t := p.bySeq[spec.Seq]
	if got := specOf(t); got != spec {
		return nil, fmt.Errorf("campaign: remote task %d does not match the local plan (coordinator %+v, local %+v): corpus or config drift", spec.Seq, spec, got)
	}
	r := runTask(ctx, p.cfg, t)
	if r.err != nil {
		return nil, r.err
	}
	return shardResultOf(r), nil
}

// shardResultOf converts a worker-side taskResult to its wire form.
func shardResultOf(r *taskResult) *ShardResult {
	w := &ShardResult{
		Seq:         r.seq,
		SeedIdx:     r.plan.seedIdx,
		Sites:       r.sites,
		ElapsedNs:   r.elapsedNs,
		RanVariants: r.ranVariants,
	}
	if len(r.variants) > 0 {
		w.Variants = make([]VariantOutcome, len(r.variants))
		for i := range r.variants {
			vr := &r.variants[i]
			w.Variants[i] = VariantOutcome{
				Status:     int(vr.status),
				Executions: vr.executions,
				Src:        vr.src,
				Symptoms:   vr.symptoms,
			}
		}
	}
	return w
}

// RemoteEngine is the coordinator half of the remote bridge: it owns the
// plan, the dispatch scheduler (coverage steering included), the
// seq-ordered aggregator, and checkpointing — everything runEngine does
// except execute shards. A transport layer (internal/fabric) drives it
// through three calls: NextTask hands out the next shard to lease,
// Requeue returns an abandoned lease's task to the front of the queue,
// and Deliver folds a completed shard back in. The engine enforces the
// same dispatch-window invariant as the in-process producer (at most
// Lookahead tasks outstanding, the last slot forced head-of-line), so the
// reorder buffer stays bounded and the merge cursor can never starve.
//
// All methods are safe for concurrent use; Deliver is idempotent per seq
// (duplicates from zombie workers are discarded), and the checkpoint
// format is exactly the in-process engine's, so a coordinator crash
// resumes with ResumeRemoteEngine — or even as a plain in-process
// campaign.Resume — from the same file.
type RemoteEngine struct {
	mu  sync.Mutex
	cfg Config
	all []*task

	sched *scheduler
	st    *aggState
	tel   *Telemetry

	pending map[int]*taskResult
	// issued tracks seqs leased out but not yet delivered; its size is the
	// outstanding count bounded by Lookahead.
	issued map[int]bool
	// requeue holds issued seqs whose lease was abandoned, kept sorted so
	// re-leases go lowest-seq-first (head-of-line recovers fastest).
	requeue   []int
	finalized bool
}

// NewRemoteEngine builds a coordinator core for a fresh campaign.
func NewRemoteEngine(cfg Config) (*RemoteEngine, error) {
	cfg = cfg.withDefaults()
	return newRemoteEngine(cfg, newAggState())
}

// ResumeRemoteEngine builds a coordinator core from a checkpoint written
// by a previous coordinator (or by the in-process engine — the formats
// are identical). tel attaches fresh telemetry (never persisted); nil is
// fine.
func ResumeRemoteEngine(path string, tel *Telemetry) (*RemoteEngine, error) {
	cfg, st, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.CheckpointPath = path
	cfg.Telemetry = tel
	return newRemoteEngine(cfg, st)
}

func newRemoteEngine(cfg Config, st *aggState) (*RemoteEngine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	all, err := buildAllTasks(cfg)
	if err != nil {
		return nil, err
	}
	e := &RemoteEngine{
		cfg:     cfg,
		all:     all,
		sched:   newScheduler(cfg, all, st.nextSeq, st.steer),
		st:      st,
		tel:     cfg.Telemetry,
		pending: make(map[int]*taskResult),
		issued:  make(map[int]bool),
	}
	st.tel = e.tel
	e.tel.campaignStarted(cfg, all, st.nextSeq)
	e.tel.attachRegions(cfg, e.sched)
	return e, nil
}

// Config returns the resolved campaign config (the one workers must plan
// from; Telemetry is json:"-" so it never crosses the wire).
func (e *RemoteEngine) Config() Config { return e.cfg }

// TotalTasks returns the number of shard tasks in the plan.
func (e *RemoteEngine) TotalTasks() int { return len(e.all) }

// MergedTasks returns how many shard tasks have been merged so far
// (including any prefix restored from a checkpoint).
func (e *RemoteEngine) MergedTasks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st.nextSeq
}

// Outstanding returns how many leased tasks have not been delivered yet.
func (e *RemoteEngine) Outstanding() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.issued)
}

// Done reports whether every shard task has been merged.
func (e *RemoteEngine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st.nextSeq >= len(e.all)
}

// NextTask hands out the next shard task to lease. ok=false means nothing
// is leasable right now: either the campaign is complete, every remaining
// task is already leased, or the dispatch window is full (Deliver will
// free it). Abandoned tasks handed back through Requeue are re-issued
// first, lowest seq first.
func (e *RemoteEngine) NextTask() (TaskSpec, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.requeue) > 0 {
		seq := e.requeue[0]
		e.requeue = e.requeue[1:]
		e.tel.observeDispatch(1)
		return specOf(e.all[seq]), true
	}
	outstanding := len(e.issued)
	if outstanding >= e.cfg.Lookahead {
		return TaskSpec{}, false // window full: wait for a merge
	}
	// mirror the in-process producer's credit discipline: the last free
	// slot must go head-of-line so the merge cursor is always supplied
	t, ok := e.sched.pop(outstanding == e.cfg.Lookahead-1)
	if !ok {
		return TaskSpec{}, false // everything dispatched
	}
	e.issued[t.seq] = true
	e.tel.observeDispatch(1)
	return specOf(t), true
}

// Requeue returns an issued-but-undelivered task to the lease queue (the
// transport calls this when a lease expires or a worker connection
// drops). Unknown or already-delivered seqs are ignored — a zombie's
// lease may race its own late result.
func (e *RemoteEngine) Requeue(seq int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.issued[seq] {
		return
	}
	for _, q := range e.requeue {
		if q == seq {
			return // already queued for re-lease
		}
	}
	e.requeue = append(e.requeue, seq)
	sort.Ints(e.requeue)
}

// Deliver folds one shard result into the campaign. It returns
// accepted=false when the seq was already delivered (a duplicate from a
// zombie worker or a retried transport message) — duplicates are
// harmless, the first copy already merged and re-execution reproduces
// every byte the merge reads. A non-nil error is a campaign failure
// (result/plan mismatch or a checkpoint write error).
func (e *RemoteEngine) Deliver(res *ShardResult) (accepted bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if res == nil || res.Seq < 0 || res.Seq >= len(e.all) {
		return false, fmt.Errorf("campaign: remote result names unknown task %d (plan has %d tasks)", seqOf(res), len(e.all))
	}
	t := e.all[res.Seq]
	if res.SeedIdx != t.plan.seedIdx {
		return false, fmt.Errorf("campaign: remote result for task %d names seed %d, plan has %d: corpus or config drift",
			res.Seq, res.SeedIdx, t.plan.seedIdx)
	}
	if res.Seq < e.st.nextSeq || e.pending[res.Seq] != nil {
		return false, nil // duplicate: already merged or buffered
	}
	r := taskResultOf(res, t)
	// steering feedback on arrival, exactly as the in-process aggregator
	// feeds the scheduler before the ordered merge
	point, novel, rp := e.sched.observe(r)
	if e.tel != nil {
		e.tel.observeSteering(e.sched.costSample(), point, novel, rp)
	}
	e.pending[res.Seq] = r
	if e.issued[res.Seq] {
		delete(e.issued, res.Seq)
		for i, q := range e.requeue {
			if q == res.Seq { // its re-lease became moot
				e.requeue = append(e.requeue[:i], e.requeue[i+1:]...)
				break
			}
		}
	}
	for {
		nr, ok := e.pending[e.st.nextSeq]
		if !ok {
			break
		}
		delete(e.pending, e.st.nextSeq)
		e.st.merge(e.cfg, nr)
		e.st.nextSeq++
		e.st.sinceCkpt++
		e.sched.advance(e.st.nextSeq)
		if e.cfg.CheckpointPath != "" && e.st.sinceCkpt >= e.cfg.CheckpointEvery {
			if err := e.checkpointLocked(); err != nil {
				return true, err
			}
		}
	}
	e.tel.observeAggregator(len(e.pending))
	return true, nil
}

// seqOf is a nil-safe accessor for error messages.
func seqOf(res *ShardResult) int {
	if res == nil {
		return -1
	}
	return res.Seq
}

// taskResultOf rebinds a wire result to the coordinator's own plan state.
func taskResultOf(w *ShardResult, t *task) *taskResult {
	r := &taskResult{
		seq:         w.Seq,
		plan:        t.plan,
		newFile:     t.newFile,
		region:      t.region,
		sites:       w.Sites,
		elapsedNs:   w.ElapsedNs,
		ranVariants: w.RanVariants,
	}
	if len(w.Variants) > 0 {
		r.variants = make([]variantResult, len(w.Variants))
		for i := range w.Variants {
			v := &w.Variants[i]
			r.variants[i] = variantResult{
				status:     variantStatus(v.Status),
				executions: v.Executions,
				src:        v.Src,
				symptoms:   v.Symptoms,
			}
		}
	}
	return r
}

// Checkpoint forces a checkpoint write of the current merged state (the
// transport's clean-shutdown path: SIGINT or a fatal fabric error should
// persist progress instead of abandoning it). A no-op without a
// CheckpointPath or when nothing changed since the last write.
func (e *RemoteEngine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.CheckpointPath == "" || e.st.sinceCkpt == 0 {
		return nil
	}
	return e.checkpointLocked()
}

func (e *RemoteEngine) checkpointLocked() error {
	var ckStart time.Time
	if e.tel != nil {
		ckStart = time.Now()
	}
	if err := writeCheckpoint(e.cfg, e.st, e.sched.steeringSnapshot()); err != nil {
		return err
	}
	e.tel.observeCheckpoint(e.st.nextSeq, time.Since(ckStart))
	e.st.sinceCkpt = 0
	return nil
}

// Finalize assembles the Report after every task has merged. It matches
// runEngine's epilogue exactly, so a loopback fabric campaign formats
// byte-identically to the in-process engine.
func (e *RemoteEngine) Finalize() (*Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st.nextSeq < len(e.all) {
		return nil, fmt.Errorf("campaign: finalize before completion: %d of %d tasks merged", e.st.nextSeq, len(e.all))
	}
	if e.finalized {
		return nil, fmt.Errorf("campaign: campaign already finalized")
	}
	e.finalized = true
	e.tel.campaignDone()
	rep := e.st.finalize(e.cfg)
	rep.CoverageCurve = e.sched.curveSnapshot()
	for _, t := range e.all {
		if t.newFile {
			rep.Plans = append(rep.Plans, t.plan.info())
		}
	}
	return rep, nil
}
