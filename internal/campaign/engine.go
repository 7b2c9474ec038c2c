package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"spe/internal/cc"
	"spe/internal/minicc"
)

// Run executes a campaign with the configured worker pool.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is canceled the engine
// stops dispatching shards, drains its workers, and returns ctx's error.
// A checkpointed campaign canceled mid-run resumes from its checkpoint to
// the same findings an uninterrupted run produces.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	e, err := NewRemoteEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.runLocal(ctx)
}

// taskResult is one shard's worth of worker output, merged by seq order.
type taskResult struct {
	seq     int
	err     error
	plan    *filePlan
	newFile bool
	// region is the shard's scheduling region (task.region), the key the
	// region policy credits coverage novelty and cost samples to.
	region   int
	variants []variantResult
	// sites is the sorted set of instrumentation sites the shard's
	// compilations hit — the coverage feedback the scheduler steers by.
	sites minicc.Snapshot
	// elapsedNs and ranVariants feed the scheduler's cost model.
	elapsedNs   int64
	ranVariants int
	// obs carries the shard's locally-accumulated telemetry (stage
	// timing splits, cache stats deltas); nil when telemetry is off.
	obs *shardObs
}

// runLocal drains the engine in process: cfg.Workers goroutines each take
// a task under the dispatch window, run it, and send the result to the
// calling goroutine, which delivers it, so merges and checkpoint writes
// stay off the workers. A shard error or cancellation stops the workers
// and persists the merged prefix through Shutdown.
func (e *RemoteEngine) runLocal(ctx context.Context) (*Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer stop()

	// two results of slack per worker, so a worker rarely waits while the
	// calling goroutine merges or writes a checkpoint
	results := make(chan *taskResult, 2*e.cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := e.take(ctx)
				if t == nil {
					return
				}
				select {
				case results <- runTask(ctx, e.cfg, t):
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	var err error
	for r := range results {
		if err != nil {
			continue // drain
		}
		if err = r.err; err == nil {
			err = e.deliver(r)
		}
		if err != nil {
			cancel()
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if serr := e.Shutdown(); serr != nil {
			err = fmt.Errorf("%w (shutdown checkpoint: %v)", err, serr)
		}
		return nil, err
	}
	return e.Finalize()
}

// ErrShardPanic marks a shard error recovered from a panic. A shard is a
// pure function of its task, so every re-run panics the same way.
var ErrShardPanic = errors.New("shard panicked")

// shardPos is where a shard walk stands: the walk position of the program
// bound in the instance (-1 for the file's original) and, in phase 2, the
// compiler configuration running it.
type shardPos struct {
	pos int64
	ver string
	opt int
}

func (p *shardPos) String() string {
	if p.ver == "" {
		return fmt.Sprintf("walk position %d", p.pos)
	}
	return fmt.Sprintf("walk position %d (%s -O%d)", p.pos, p.ver, p.opt)
}

// runTask processes one shard: the worker half of the pipeline. Alongside
// the differential results it reports the shard's wall-clock cost and the
// instrumentation sites its compilations hit — the feedback the scheduler
// steers by. The recorder is lenient so site-registry drift surfaces as a
// campaign error instead of a panicking worker.
//
// The worker checks a Space and a backendState out of the file's pools,
// and every program of the shard, the file's original included, takes
// the one batched walk (runShardBatch): each program patches the Space's
// pooled template clone in place, so none is ever re-lexed, re-parsed, or
// re-analyzed, and source text is rendered only when a variant exhibits a
// symptom or the -paranoid cross-check demands it.
//
// A panic anywhere in the shard becomes the task's error, wrapping
// ErrShardPanic and naming the file and the walk position (plus the
// compiler configuration in phase 2). A walk that fails or panics drops
// its pooled state instead of putting it back, since it may have stopped
// half-patched.
func runTask(ctx context.Context, cfg Config, t *task) (res *taskResult) {
	res = &taskResult{seq: t.seq, plan: t.plan, newFile: t.newFile, region: t.region}
	if t.plan.skip {
		return res
	}
	at := shardPos{pos: t.firstPos()}
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("campaign: corpus[%d] %v: %w: %v", t.plan.seedIdx, &at, ErrShardPanic, r)
		}
	}()
	start := time.Now()
	var cov *minicc.Coverage // nil receiver = no-op recorder
	if cfg.collectCoverage() {
		cov = minicc.NewLenientCoverage()
	}
	be := t.plan.backends.Get()
	space := t.plan.pool.Get()
	// shard-local telemetry accumulator: plain ints touched on the variant
	// path, folded into the shared atomics once at merge. nil (and therefore
	// completely absent from the hot path) when telemetry is off.
	var so *shardObs
	if cfg.Telemetry != nil {
		so = &shardObs{miniccBase: be.cache.Stats(), refvmBase: be.ref.Stats()}
	}
	if err := runShardBatch(ctx, cfg, t, space, be, cov, so, &at, res); err != nil {
		res.err = err
		return res
	}
	if so != nil {
		so.minicc = be.cache.Stats().Sub(so.miniccBase)
		so.refvm = be.ref.Stats().Sub(so.refvmBase)
		res.obs = so
	}
	t.plan.pool.Put(space)
	t.plan.backends.Put(be)
	if err := cov.Err(); err != nil {
		res.err = fmt.Errorf("campaign: corpus[%d]: coverage registry drift: %w", t.plan.seedIdx, err)
		return res
	}
	res.sites = cov.Snapshot()
	res.elapsedNs = time.Since(start).Nanoseconds()
	res.ranVariants = len(res.variants)
	return res
}

// crossCheckVariant is the -paranoid equivalence assertion: the typed
// program the in-place instantiation produced must agree with what the
// historical pipeline would have built from its rendered text. Concretely,
// the text must parse and analyze cleanly, printing must be a fixed point,
// and — the core sema invariant — every variable use of the re-analyzed
// program must bind the symbol (by ID) that the rebinding chose, proving
// no hole patch ever escaped its scope or collided with shadowing.
func crossCheckVariant(prog *cc.Program, rendered string) error {
	file, err := cc.Parse(rendered)
	if err != nil {
		return fmt.Errorf("paranoid: rendered variant does not parse: %w", err)
	}
	reprog, err := cc.Analyze(file)
	if err != nil {
		return fmt.Errorf("paranoid: rendered variant does not analyze: %w", err)
	}
	if got := cc.PrintFile(reprog.File); got != rendered {
		return fmt.Errorf("paranoid: print is not a fixed point of parse+print")
	}
	if len(reprog.Uses) != len(prog.Uses) {
		return fmt.Errorf("paranoid: re-analysis found %d variable uses, instantiation has %d",
			len(reprog.Uses), len(prog.Uses))
	}
	for i, use := range prog.Uses {
		re := reprog.Uses[i]
		if use.Sym == nil || re.Sym == nil {
			return fmt.Errorf("paranoid: use %d unresolved (instantiated: %v, re-analyzed: %v)",
				i, use.Sym != nil, re.Sym != nil)
		}
		if use.Sym.ID != re.Sym.ID {
			return fmt.Errorf("paranoid: use %d (%q at %v) binds symbol %d in the instantiated program but %d after re-analysis",
				i, use.Name, use.Pos, use.Sym.ID, re.Sym.ID)
		}
	}
	return nil
}

// aggState is the aggregator's merge state: everything the campaign has
// learned from the ordered prefix of shard results merged so far. It is
// exactly what a checkpoint persists.
type aggState struct {
	nextSeq   int
	sinceCkpt int
	stats     Stats
	byKey     map[string]*Finding
	// attribution is the campaign-global (seed, version, opt, symptom
	// class) → bug memo: the first verdict in merge order per key, which
	// comes from the file's lowest-positioned variant showing the key (the
	// only one guaranteed to have searched; see attrTable).
	attribution map[string]string
	// steer is the scheduler steering (coverage frontier, cost model,
	// region scores) restored from a checkpoint; nil on a fresh campaign.
	steer *steering
	// tel mirrors Config.Telemetry for the merge path; nil-safe (every
	// *Telemetry method no-ops on a nil receiver) and never persisted.
	tel *Telemetry
}

func newAggState() *aggState {
	return &aggState{
		byKey:       make(map[string]*Finding),
		attribution: make(map[string]string),
		stats:       Stats{NaiveTotal: new(big.Int), CanonicalTotal: new(big.Int)},
	}
}

// merge folds one shard result into the state. Results arrive here in seq
// order, so every decision below (finding creation, sample test case,
// attribution memo) replays the sequential harness bit for bit.
func (st *aggState) merge(cfg Config, r *taskResult) {
	if r.newFile {
		st.stats.Files++
		st.stats.NaiveTotal.Add(st.stats.NaiveTotal, r.plan.naive)
		st.stats.CanonicalTotal.Add(st.stats.CanonicalTotal, r.plan.canonical)
		if r.plan.skip {
			st.stats.FilesSkipped++
		}
	}
	for i := range r.variants {
		vr := &r.variants[i]
		st.stats.Variants++
		if vr.status == statusUB {
			st.stats.VariantsUB++
			continue
		}
		st.stats.VariantsClean++
		st.stats.Executions += vr.executions
		for _, s := range vr.symptoms {
			st.applySymptom(r.plan.seedIdx, vr.src, s)
		}
	}
	st.tel.observeMerge(r)
}

// applySymptom replays one symptom record against the finding map — the
// aggregator half of the old classify.
func (st *aggState) applySymptom(seedIdx int, src string, s symptom) {
	record := func(kind minicc.BugKind, bugID, signature string) {
		key := "sig:" + signature
		if bugID != "" {
			key = "id:" + bugID
		}
		fd, ok := st.byKey[key]
		if !ok {
			fd = &Finding{
				BugID:     bugID,
				Kind:      kind,
				Signature: signature,
				TestCase:  src,
				SeedIndex: seedIdx,
			}
			if b, found := minicc.BugByID(bugID); found {
				fd.Component = b.Component
				fd.Priority = b.Priority
			}
			st.byKey[key] = fd
		}
		fd.Occurrences++
		fd.OptLevels = addUniqueInt(fd.OptLevels, s.Opt)
		fd.Versions = addUniqueStr(fd.Versions, s.Ver)
		st.tel.observeFinding(fd, !ok)
	}

	switch s.Class {
	case classCrash:
		record(minicc.BugCrash, s.BugID, s.Sig)
	case classPerfHang:
		record(minicc.BugPerformance, s.BugID, s.Sig)
	case classMismatch:
		// attribute by the campaign-global memo; the first record in merge
		// order per (seed, version, opt, class) seeds it with its verdict,
		// and later records' BugIDs are never read
		memoKey := fmt.Sprintf("%d|%s|%d|%s", seedIdx, s.Ver, s.Opt, s.Coarse)
		bugID, cached := st.attribution[memoKey]
		if !cached {
			bugID = s.BugID
			st.attribution[memoKey] = bugID
		}
		sig := s.Sig
		if bugID == "" {
			// unattributed: dedupe by coarse class and seed to avoid a
			// finding per concrete wrong value
			sig = fmt.Sprintf("%s (seed %d): e.g. %s", s.Coarse, seedIdx, sig)
		}
		if bugID != "" {
			if b, found := minicc.BugByID(bugID); found && b.Kind == minicc.BugPerformance {
				record(minicc.BugPerformance, bugID, sig)
				return
			}
		}
		record(minicc.BugWrongCode, bugID, sig)
	}
}

// finalize turns the merged state into the Report.
func (st *aggState) finalize(cfg Config) *Report {
	rep := &Report{Config: cfg, Stats: st.stats}
	for _, fd := range st.byKey {
		if cfg.ReduceTestCases {
			reduceFinding(fd, cfg)
		}
		rep.Findings = append(rep.Findings, fd)
	}
	sortFindings(rep.Findings)
	for _, fd := range rep.Findings {
		switch fd.Kind {
		case minicc.BugCrash:
			rep.Stats.CrashFindings++
		case minicc.BugWrongCode:
			rep.Stats.WrongFindings++
		default:
			rep.Stats.PerfFindings++
		}
	}
	return rep
}

func addUniqueInt(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	s = append(s, v)
	sort.Ints(s)
	return s
}

func addUniqueStr(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	s = append(s, v)
	sort.Strings(s)
	return s
}
