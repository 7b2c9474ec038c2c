package campaign

import (
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"

	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/refvm"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// backendState is the per-worker-checkout bundle of reusable execution
// backends: a pooled tree-walking interpreter machine (the originals'
// oracle and the paranoid cross-checks), the bytecode-oracle cache
// (skeleton-keyed bytecode templates + pooled VM), and the minicc backend
// cache (IR templates + VM state). Like a spe.Space, a
// backendState is single-goroutine between a Get and its Put; workers
// check one out per shard task, so machines, templates, and slabs
// amortize across every variant a worker drains from one file.
type backendState struct {
	mach  *interp.Machine
	ref   *refvm.Cache
	cache *minicc.Cache
}

// backendPool pools backendStates per file and counts checkout hit/miss
// rates for telemetry (one atomic add per Get, i.e. per shard task —
// never per variant).
type backendPool struct {
	pool sync.Pool
	gets atomic.Int64
	news atomic.Int64
}

func newBackendPool() *backendPool {
	p := &backendPool{}
	p.pool.New = func() interface{} {
		p.news.Add(1)
		return &backendState{mach: interp.NewMachine(), ref: refvm.NewCache(), cache: minicc.NewCache()}
	}
	return p
}

// Get checks a backendState out for exclusive use until Put.
func (p *backendPool) Get() *backendState {
	p.gets.Add(1)
	return p.pool.Get().(*backendState)
}

// Put returns a state obtained from Get.
func (p *backendPool) Put(b *backendState) { p.pool.Put(b) }

// Stats reports checkouts served by a recycled state (hits) versus
// building fresh backends (misses). Purely observational.
func (p *backendPool) Stats() (hits, misses int64) {
	n := p.news.Load()
	return p.gets.Load() - n, n
}

// filePlan is the deterministic testing schedule of one corpus file: the
// stride-sampled subset of the canonical enumeration the sequential harness
// would have walked, expressed in closed form so shards can jump straight
// to their variants with Unrank instead of replaying the walk.
//
// The sequential loop tested the original program plus every stride-th
// canonical variant until the per-file budget or the walk bound ran out;
// that set is exactly {j*stride : 0 <= j < tested} with
// tested = min(budget, ceil(canonical/stride)).
type filePlan struct {
	seedIdx   int
	src       string
	skip      bool // canonical count over threshold
	naive     *big.Int
	canonical *big.Int
	sk        *skeleton.Skeleton
	stride    int64
	// unclamped is the stride the per-file budget alone would have chosen
	// (canonical/budget, a big.Int because huge canonical counts overflow
	// int64); stride < unclamped exactly when the walk-bound clamp engaged
	// (clamped), collapsing coverage of a huge canonical space to a fixed
	// walk bound. The clamp is surfaced through Report.Plans instead of
	// being silently absorbed.
	unclamped *big.Int
	clamped   bool
	tested    int64 // number of enumerated variants tested
	// pool shares the file's enumeration across shard workers: each worker
	// checks out a private spe.Space (ranker memo tables + AST template
	// instances) and returns it when its shard completes.
	pool *spe.Pool
	// backends pools the per-worker execution backends the same way.
	backends *backendPool
	// attr is the file's wrong-code attribution table, shared by every
	// shard of the file that runs in this process.
	attr attrTable
	// regionStarts are the sorted tested-space start positions of the
	// file's scheduling regions (spe.Space.RegionCuts): contiguous
	// hole-group ranges the region scheduler scores independently. Nil or
	// single-element means the file is one opaque region. Regions are
	// advisory scheduling metadata only — task identity, seq numbers, and
	// the merged report never depend on them.
	regionStarts []int64
}

// maxRegionsPerFile bounds how many scheduling regions one file's walk
// is cut into, keeping per-region score/frontier state small even for
// very large multi-function files.
const maxRegionsPerFile = 16

// regions returns how many scheduling regions the plan has (>= 1).
func (p *filePlan) regions() int {
	if len(p.regionStarts) == 0 {
		return 1
	}
	return len(p.regionStarts)
}

// regionOf maps a tested-space position to its region index.
func (p *filePlan) regionOf(fromJ int64) int {
	r := sort.Search(len(p.regionStarts), func(i int) bool { return p.regionStarts[i] > fromJ }) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// info exports the plan's schedule facts for the report.
func (p *filePlan) info() PlanInfo {
	unclamped := ""
	if p.unclamped != nil {
		unclamped = p.unclamped.String()
	}
	return PlanInfo{
		SeedIndex:       p.seedIdx,
		Canonical:       p.canonical.String(),
		Stride:          p.stride,
		UnclampedStride: unclamped,
		Tested:          p.tested,
		Clamped:         p.clamped,
		Skipped:         p.skip,
		Regions:         p.regions(),
	}
}

// buildPlan derives the plan of one corpus file, reproducing the
// sequential harness's per-file decisions bit for bit.
func buildPlan(cfg Config, seedIdx int, src string) (*filePlan, error) {
	f, err := cc.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("campaign: corpus[%d]: %w", seedIdx, err)
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		return nil, fmt.Errorf("campaign: corpus[%d]: %w", seedIdx, err)
	}
	sk, err := skeleton.Build(prog)
	if err != nil {
		return nil, fmt.Errorf("campaign: corpus[%d]: %w", seedIdx, err)
	}
	opts := spe.Options{Mode: spe.ModeCanonical, Granularity: cfg.Granularity}
	plan := &filePlan{
		seedIdx:   seedIdx,
		src:       src,
		sk:        sk,
		canonical: spe.Count(sk, opts),
		naive:     spe.Count(sk, spe.Options{Mode: spe.ModeNaive, Granularity: cfg.Granularity}),
	}
	if cfg.Threshold > 0 && plan.canonical.Cmp(big.NewInt(cfg.Threshold)) > 0 {
		plan.skip = true
		return plan, nil
	}
	plan.pool, err = spe.NewPool(sk, opts)
	if err != nil {
		return nil, fmt.Errorf("campaign: corpus[%d]: %w", seedIdx, err)
	}
	plan.pool.CheckedRebind = cfg.Paranoid
	plan.backends = newBackendPool()
	budget := cfg.MaxVariantsPerFile
	if budget <= 0 {
		// a non-positive budget exhausts itself on the first enumerated
		// variant (the historical loop decremented before checking)
		plan.stride = 1
		plan.unclamped = big.NewInt(1)
		plan.tested = 0
		if plan.canonical.Sign() > 0 {
			plan.tested = 1
		}
		return plan, nil
	}
	stride := int64(1)
	unclamped := big.NewInt(1)
	if plan.canonical.IsInt64() {
		if total := plan.canonical.Int64(); total > int64(budget) {
			stride = total / int64(budget)
			unclamped.SetInt64(stride)
			if stride > 64 {
				stride = 64 // bound the walk over huge sets (see PlanInfo)
			}
		}
	} else {
		// the canonical count exceeds int64: the budget-proportional stride
		// (canonical/budget) is astronomically larger than the walk bound
		stride = 64
		unclamped.Quo(plan.canonical, big.NewInt(int64(budget)))
	}
	plan.stride = stride
	plan.unclamped = unclamped
	plan.clamped = unclamped.Cmp(big.NewInt(stride)) > 0
	// tested = min(budget, ceil(canonical/stride))
	ceil := new(big.Int).Add(plan.canonical, big.NewInt(stride-1))
	ceil.Quo(ceil, big.NewInt(stride))
	if ceil.Cmp(big.NewInt(int64(budget))) >= 0 {
		plan.tested = int64(budget)
	} else {
		plan.tested = ceil.Int64()
	}
	if plan.tested > 1 {
		sp := plan.pool.Get()
		plan.regionStarts = sp.RegionCuts(plan.stride, plan.tested, maxRegionsPerFile)
		plan.pool.Put(sp)
	}
	return plan, nil
}

// buildAllTasks derives every corpus file's plan and cuts the full shard
// task sequence with global seq numbers. The sequence is a pure function
// of Config — dispatch policy, adaptive batching, and resume never change
// task identity, which is what keeps checkpoints and the deterministic
// merge stable across schedules.
func buildAllTasks(cfg Config) ([]*task, error) {
	var out []*task
	seq := 0
	for seedIdx, src := range cfg.Corpus {
		plan, err := buildPlan(cfg, seedIdx, src)
		if err != nil {
			return nil, err
		}
		for _, t := range plan.tasks(cfg) {
			t.seq = seq
			seq++
			out = append(out, t)
		}
	}
	return out, nil
}

// task is one unit of shard work: a contiguous range of tested-variant
// positions of one file, plus (on the file's first task) the original
// program and the file-level statistics header.
type task struct {
	seq  int
	plan *filePlan
	// newFile marks the file's first task, which carries the Files /
	// NaiveTotal / CanonicalTotal / FilesSkipped statistics.
	newFile bool
	// includeOriginal tests the unmodified seed source before the range.
	includeOriginal bool
	fromJ, toJ      int64 // tested-variant positions [fromJ, toJ)
	// region is the scheduling region the range starts in (plan.regionOf
	// of fromJ): advisory dispatch metadata, never part of task identity.
	region int
}

// tasks cuts the plan into shard tasks of at most cfg.ShardSize variants.
// A skipped or empty file still contributes one header task so its
// statistics flow through the same ordered merge as everything else.
func (p *filePlan) tasks(cfg Config) []*task {
	if p.skip {
		return []*task{{plan: p, newFile: true}}
	}
	out := []*task{{plan: p, newFile: true, includeOriginal: true}}
	shard := int64(cfg.ShardSize)
	for from := int64(0); from < p.tested; from += shard {
		to := from + shard
		if to > p.tested {
			to = p.tested
		}
		// the original rides along with the first range
		if from == 0 {
			out[0].fromJ, out[0].toJ = from, to
			continue
		}
		out = append(out, &task{plan: p, fromJ: from, toJ: to, region: p.regionOf(from)})
	}
	return out
}
