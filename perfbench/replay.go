package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime"
	"strconv"
	"sync"
	"time"

	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/refvm"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// replayStats counts what replay passes saw. Layer times come from the
// spans; these are the counts the per-variant ratios divide by and the
// input properties (step-limited oracle runs, compiler crashes).
type replayStats struct {
	replays      int // passes summed; span totals divide by it
	variants     int64
	refvmNs      int64
	refvmLimited int64
	refvmLimitNs int64
	refvmSteps   int64
	execs        [4]int64 // per -O level
	crashes      int64

	// the cold split: untemplated Lower, Compile and Execute on one clean
	// variant per shard
	lowerNs, lowerN int64
	passesNs        [4]int64
	passesN         [4]int64
	vmNs, vmN       [4]int64
}

func (s *replayStats) add(o *replayStats) {
	s.replays += o.replays
	s.variants += o.variants
	s.refvmNs += o.refvmNs
	s.refvmLimited += o.refvmLimited
	s.refvmLimitNs += o.refvmLimitNs
	s.refvmSteps += o.refvmSteps
	s.crashes += o.crashes
	s.lowerNs += o.lowerNs
	s.lowerN += o.lowerN
	for i := range s.execs {
		s.execs[i] += o.execs[i]
		s.passesNs[i] += o.passesNs[i]
		s.passesN[i] += o.passesN[i]
		s.vmNs[i] += o.vmNs[i]
		s.vmN[i] += o.vmN[i]
	}
}

func (s *replayStats) allExecs() int64 {
	var n int64
	for _, e := range s.execs {
		n += e
	}
	return n
}

// replayFile is one corpus file's derived state.
type replayFile struct {
	src  string
	plan campaign.PlanInfo
	pool *spe.Pool
}

// shardTask is one contiguous range of a file's tested positions.
type shardTask struct {
	file     *replayFile
	from, to int64
}

// replayer re-executes the tested variants of a finished campaign through
// the batched entry points its shard workers use: an spe.Pool per file,
// Space.AcquireAt, then FillDeltaAt and Instance.Instantiate for every
// bind, refvm.Cache.RunBatch for the oracle and minicc.Compiler.RunBatch
// per configuration, with spans inside bind and yield so that per-variant
// costs match the hot path. The report supplies the resolved config and
// each file's stride and walk length. It must come from a measured
// campaign, not the reference: the reference records the coverage curve,
// which would make the replay record coverage that measured fifo
// campaigns skip. A file's first shard also replays the file's unmodified
// source through the untemplated path the campaign runs it on.
type replayer struct {
	cfg   campaign.Config
	files []*replayFile
	tasks []shardTask
}

// newReplayer derives every file's plan state the way the campaign does,
// timing cc.Parse + cc.Analyze, skeleton.Build, spe.Count (canonical and
// naive) and spe.NewPool (which builds the first Space) as root spans.
func newReplayer(rep *campaign.Report, tr *tracer) (*replayer, error) {
	cfg := rep.Config
	if len(rep.Plans) != len(cfg.Corpus) {
		return nil, fmt.Errorf("replay: report has %d plans for %d files", len(rep.Plans), len(cfg.Corpus))
	}
	r := &replayer{cfg: cfg}
	opts := spe.Options{Mode: spe.ModeCanonical, Granularity: cfg.Granularity}
	for i, src := range cfg.Corpus {
		plan := rep.Plans[i]
		if plan.SeedIndex != i {
			return nil, fmt.Errorf("replay: plan %d names file %d", i, plan.SeedIndex)
		}
		a := time.Now()
		f, err := cc.Parse(src)
		if err != nil {
			return nil, err
		}
		prog, err := cc.Analyze(f)
		if err != nil {
			return nil, err
		}
		b := time.Now()
		sk, err := skeleton.Build(prog)
		if err != nil {
			return nil, err
		}
		c := time.Now()
		tr.add(0, "cc.front", 0, a, b)
		tr.add(0, "skeleton.build", 0, b, c)
		spe.Count(sk, opts)
		spe.Count(sk, spe.Options{Mode: spe.ModeNaive, Granularity: cfg.Granularity})
		tr.add(0, "spe.count", 0, c, time.Now())
		if plan.Skipped || plan.Tested == 0 {
			continue
		}
		d := time.Now()
		pool, err := spe.NewPool(sk, opts)
		if err != nil {
			return nil, err
		}
		tr.add(0, "spe.space", 0, d, time.Now())
		rf := &replayFile{src: src, plan: plan, pool: pool}
		r.files = append(r.files, rf)
		for from := int64(0); from < plan.Tested; from += int64(cfg.ShardSize) {
			r.tasks = append(r.tasks, shardTask{file: rf, from: from, to: min(from+int64(cfg.ShardSize), plan.Tested)})
		}
	}
	return r, nil
}

// poolMisses sums the Space builds the files' pools made on Get.
func (r *replayer) poolMisses() int64 {
	var n int64
	for _, f := range r.files {
		_, m := f.pool.Stats()
		n += m
	}
	return n
}

// pass replays every shard once on `slots` goroutines and returns what it
// counted. It starts from empty Space pools, as the campaign's shards do:
// the garbage collections during plan derivation empty the campaign's
// pools (telemetry counts a miss for every testsuite file), and two
// collections here empty the replay's, so each shard's Pool.Get pays the
// same Space rebuilds. One clean variant per shard is also compiled and
// run through the untemplated minicc.Lower, Compiler.Compile and
// minicc.Execute (the cold split).
func (r *replayer) pass(ctx context.Context, slots int, tr *tracer) (*replayStats, error) {
	runtime.GC()
	runtime.GC()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	queue := make(chan shardTask)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    replayStats
		firstErr error
	)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rc, mc := refvm.NewCache(), minicc.NewCache()
			var local replayStats
			for t := range queue {
				if ctx.Err() != nil {
					continue
				}
				if err := replayShard(ctx, r.cfg, t, rc, mc, slot, tr, &local); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
			mu.Lock()
			total.add(&local)
			mu.Unlock()
		}(s)
	}
	for _, t := range r.tasks {
		queue <- t
	}
	close(queue)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	total.replays = 1
	return &total, nil
}

// replayOriginal runs a file's unmodified source the way the campaign
// does on the file's first shard: cc.Parse and cc.Analyze, the
// tree-walking interp.Run as the oracle, then an untemplated
// minicc.Compiler.Run per configuration if the oracle finds no undefined
// behaviour. A source the front end rejects is skipped, as the campaign
// skips it.
func replayOriginal(cfg campaign.Config, src string, cov *minicc.Coverage, slot int, parent int64, tr *tracer) {
	a := time.Now()
	f, err := cc.Parse(src)
	if err != nil {
		return
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		return
	}
	b := time.Now()
	ref := interp.Run(prog, interp.Config{MaxSteps: cfg.Steps})
	c := time.Now()
	tr.add(parent, "original.front", slot, a, b)
	tr.add(parent, "original.interp", slot, b, c)
	if !ref.Defined() {
		return
	}
	ecfg := minicc.ExecConfig{MaxSteps: ref.Steps*20 + 50_000, Dispatch: cfg.BackendDispatch}
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			d := time.Now()
			(&minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}).Run(prog, ecfg)
			tr.add(parent, "original.minicc", slot, d, time.Now())
		}
	}
}

// replayShard replays one shard the way the campaign's batched shard path
// runs it: the file's original first on the file's first shard, then all
// oracle verdicts, then each configuration over the clean variants; then
// the cold split on the first clean variant.
func replayShard(ctx context.Context, cfg campaign.Config, t shardTask, rc *refvm.Cache, mc *minicc.Cache, slot int, tr *tracer, st *replayStats) error {
	shardID := tr.id()
	s0 := time.Now()
	defer func() { tr.record(shardID, 0, "replay.shard", slot, s0, time.Now()) }()
	var cov *minicc.Coverage
	if cfg.Schedule != campaign.ScheduleFIFO || cfg.CoverageCurve {
		cov = minicc.NewLenientCoverage()
	}
	if t.from == 0 {
		replayOriginal(cfg, t.file.src, cov, slot, shardID, tr)
	}
	g := time.Now()
	space := t.file.pool.Get()
	defer t.file.pool.Put(space)
	a := time.Now()
	tr.add(shardID, "spe.pool_get", slot, g, a)

	n := int(t.to - t.from)
	idx := new(big.Int)
	stride := big.NewInt(t.file.plan.Stride)
	setIdx := func(i int) {
		idx.SetInt64(t.from + int64(i))
		idx.Mul(idx, stride)
	}
	setIdx(0)
	in, release, err := space.AcquireAt(idx)
	tr.add(shardID, "spe.acquire", slot, a, time.Now())
	if err != nil {
		return err
	}
	defer release()
	prog, holes := in.Program(), in.HoleIdents()
	bindTo := func(i int, parent int64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		setIdx(i)
		b := time.Now()
		fill, _, err := space.FillDeltaAt(idx)
		if err == nil {
			err = in.Instantiate(fill)
		}
		tr.add(parent, "spe.instantiate", slot, b, time.Now())
		return err
	}

	// phase 1: the oracle over the whole shard on one VM
	refs := make([]*interp.Result, n)
	var bound time.Time
	batchID := tr.id()
	b0 := time.Now()
	err = rc.RunBatch(prog, holes, refvm.Config{MaxSteps: cfg.Steps, Dispatch: cfg.Dispatch}, n,
		func(i int) error {
			if i > 0 {
				if err := bindTo(i, batchID); err != nil {
					return err
				}
			}
			bound = time.Now()
			return nil
		},
		func(i int, res *interp.Result) error {
			now := time.Now()
			tr.add(batchID, "refvm.run", slot, bound, now)
			ns := now.Sub(bound).Nanoseconds()
			refs[i] = res
			st.variants++
			st.refvmNs += ns
			st.refvmSteps += res.Steps
			if res.Limit != nil {
				st.refvmLimited++
				st.refvmLimitNs += ns
			}
			return nil
		})
	tr.record(batchID, shardID, "refvm.batch", slot, b0, time.Now())
	if err != nil {
		return err
	}

	// phase 2: configuration-outer, every clean variant in ascending order
	var clean []int
	for i, r := range refs {
		if r.Defined() {
			clean = append(clean, i)
		}
	}
	if len(clean) == 0 {
		return nil
	}
	execCfg := func(i int) minicc.ExecConfig {
		return minicc.ExecConfig{MaxSteps: refs[i].Steps*20 + 50_000, Dispatch: cfg.BackendDispatch}
	}
	for _, ver := range cfg.Versions {
		for _, opt := range cfg.OptLevels {
			comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
			o := strconv.Itoa(opt)
			id := tr.id()
			c0 := time.Now()
			err := comp.RunBatch(mc, prog, holes, false, len(clean),
				func(k int) (minicc.ExecConfig, error) {
					if err := bindTo(clean[k], id); err != nil {
						return minicc.ExecConfig{}, err
					}
					bound = time.Now()
					return execCfg(clean[k]), nil
				},
				func(k int, ro *minicc.RunOutcome) error {
					tr.add(id, "minicc.run.O"+o, slot, bound, time.Now())
					st.execs[opt]++
					if ro.Compile.Crash != nil {
						st.crashes++
					}
					return nil
				})
			tr.record(id, shardID, "minicc.batch.O"+o, slot, c0, time.Now())
			if err != nil {
				return err
			}
		}
	}
	// the cold split on the shard's first clean variant
	i := clean[0]
	coldID := tr.id()
	c0 := time.Now()
	defer func() { tr.record(coldID, shardID, "minicc.cold", slot, c0, time.Now()) }()
	if err := bindTo(i, coldID); err != nil {
		return err
	}
	for _, ver := range cfg.Versions {
		v := minicc.VersionIndex(ver)
		if v < 0 {
			v = len(minicc.Versions) - 1
		}
		for _, opt := range cfg.OptLevels {
			o := strconv.Itoa(opt)
			bugs := minicc.BugsFor(v, opt)
			a := time.Now()
			_, _ = minicc.Lower(prog, bugs, nil) // a seeded crash is a timing like any other
			b := time.Now()
			out := (&minicc.Compiler{Version: ver, Opt: opt, Seeded: true}).Compile(prog)
			c := time.Now()
			tr.add(coldID, "minicc.lower", slot, a, b)
			tr.add(coldID, "minicc.compile.O"+o, slot, b, c)
			st.lowerNs += b.Sub(a).Nanoseconds()
			st.lowerN++
			if opt >= 1 {
				st.passesNs[opt] += c.Sub(b).Nanoseconds() - b.Sub(a).Nanoseconds()
				st.passesN[opt]++
			}
			if !out.Ok() {
				continue
			}
			minicc.Execute(out.Program, bugs, nil, execCfg(i))
			d := time.Now()
			tr.add(coldID, "minicc.execute.O"+o, slot, c, d)
			st.vmNs[opt] += d.Sub(c).Nanoseconds()
			st.vmN[opt]++
		}
	}
	return nil
}
