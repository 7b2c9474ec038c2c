package campaign

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"spe/internal/minicc"
)

// The scheduler is the engine's dispatch policy: it owns every not-yet-
// dispatched shard task and decides which one a worker gets next. Dispatch
// order is the ONLY thing it controls — the aggregator still merges results
// in canonical seq order, so any policy produces a byte-identical Report —
// but order determines how fast the campaign's compiler-coverage frontier
// grows, which is what the paper's Figure-9 measurements steer by.
//
// Three policies exist. ScheduleFIFO replays PR 1's canonical enumeration
// order. ScheduleCoverage is feedback-directed at corpus-file granularity:
// each completed shard reports the instrumentation sites it hit, the
// scheduler diffs them against the campaign-wide frontier, and credits its
// scoring unit with the novelty. Units whose recent shards found new sites
// are drained first; a unit whose shards stop producing novelty decays
// geometrically and the scheduler moves on. Unvisited units start with an
// optimistic score so every unit is sampled early — the breadth pass that
// makes coverage grow much faster than grinding files in order.
// ScheduleRegion applies the identical model one level deeper: each file's
// walk is cut into regions (contiguous hole-group ranges sharing one
// function's filling, spe.Space.RegionCuts), and the (seed, region) pair
// becomes the scoring unit, so a large multi-function file steers
// internally instead of draining as one opaque block. The EWMA cost model
// and the coverage frontier also go per-region under this policy (with the
// campaign-wide aggregates kept as fallbacks), and checkpoint v3 persists
// the per-region state.
//
// Dispatch is bounded by a lookahead horizon: a task may only be sent
// while its seq is within cfg.Lookahead of the aggregator's merge cursor.
// The horizon equals the engine's dispatch-credit window (a dispatched
// task holds its credit until it merges), which yields two invariants:
// the reorder buffer stays O(Lookahead), and dispatch can never deadlock —
// whenever a credit is free, the lowest undispatched seq is provably
// within the horizon (at most Lookahead-1 tasks can sit unmerged below
// it), so pop always has an eligible candidate.

// optimisticScore ranks never-visited scoring units above any observed
// novelty.
const optimisticScore = 1e18

// noveltyDecay is the geometric memory of a unit's score: each observed
// shard halves the past before adding its own new-site count, so a few
// barren shards in a row demote a stale unit below fresher ones.
const noveltyDecay = 0.5

// costDecay is the EWMA weight of the per-variant wall-clock model that
// telemetry, /status, and the checkpoint steering block read.
const costDecay = 0.7

// qkey identifies one scoring unit: a corpus file under the coverage
// policy (region 0), a (file, region) pair under the region policy.
type qkey struct {
	seed   int
	region int
}

// String renders the checkpoint-v3 map key ("seed:region").
func (k qkey) String() string { return fmt.Sprintf("%d:%d", k.seed, k.region) }

// parseQKey inverts qkey.String; malformed keys (from a hand-edited
// checkpoint) are dropped by the caller.
func parseQKey(s string) (qkey, bool) {
	seedS, regionS, ok := strings.Cut(s, ":")
	if !ok {
		return qkey{}, false
	}
	seed, err1 := strconv.Atoi(seedS)
	region, err2 := strconv.Atoi(regionS)
	if err1 != nil || err2 != nil {
		return qkey{}, false
	}
	return qkey{seed: seed, region: region}, true
}

// steering is the persisted half of the scheduler: the coverage frontier,
// cost model, and scores a checkpoint carries so a resumed campaign keeps
// the steering it had learned before the interruption. Steering is
// advisory only — it shapes dispatch order, never the merged report — so
// a checkpoint from an older version restoring a subset of it is always
// report-safe.
type steering struct {
	// Frontier is the sorted set of instrumentation sites hit so far.
	Frontier minicc.Snapshot
	// CostNsPerVariant is the EWMA cost model (0 = unlearned).
	CostNsPerVariant float64
	// RegionScores maps corpus seed index to its current novelty score
	// (the checkpoint-v2 field, written under the coverage policy).
	RegionScores map[int]float64
	// The v3 per-region fields, written under the region policy and keyed
	// "seed:region". A v2 checkpoint simply lacks them: the resumed
	// scheduler then restarts region scores from the optimistic init while
	// the campaign-wide frontier (above) still seeds the curve, and the
	// report is byte-identical either way.
	RegionScoresV3  map[string]float64         `json:",omitempty"`
	RegionCostNs    map[string]float64         `json:",omitempty"`
	RegionFrontiers map[string]minicc.Snapshot `json:",omitempty"`
}

// unitQueue holds one scoring unit's undispatched tasks in seq order.
type unitQueue struct {
	key   qkey
	tasks []*task
	head  int
}

func (q *unitQueue) peek() *task {
	if q.head >= len(q.tasks) {
		return nil
	}
	return q.tasks[q.head]
}

// RegionStatus is one scoring unit's live steering state, surfaced by the
// telemetry /status endpoint under the region policy.
type RegionStatus struct {
	Seed     int     `json:"seed"`
	Region   int     `json:"region"`
	Score    float64 `json:"score"`
	Sites    int     `json:"sites"`
	Variants int     `json:"variants"`
	CostNs   float64 `json:"cost_ns_per_variant"`
	Pending  int     `json:"pending_tasks"`
}

// RegionCoveragePoint is one sample of a region's coverage curve: after
// Variants variants completed in that region, its frontier held Sites
// sites. Telemetry-facing (event ring / status); reports never carry it.
type RegionCoveragePoint struct {
	Seed     int `json:"seed"`
	Region   int `json:"region"`
	Variants int `json:"variants"`
	Sites    int `json:"sites"`
}

type scheduler struct {
	mu  sync.Mutex
	cfg Config
	// cursor mirrors the aggregator's merge cursor (st.nextSeq); the
	// eligibility horizon is [cursor, cursor+Lookahead).
	cursor int
	units  []*unitQueue
	byKey  map[qkey]*unitQueue
	// pending counts undispatched tasks across all units.
	pending int

	frontier map[string]bool
	scores   map[qkey]float64
	visited  map[qkey]bool
	costNs   float64

	// per-region state, maintained only under ScheduleRegion: each unit's
	// own coverage frontier, EWMA cost model, and completed-variant count.
	regionSites    map[qkey]map[string]bool
	regionCostNs   map[qkey]float64
	regionVariants map[qkey]int

	curve    []CoveragePoint
	variants int // cumulative variants completed, in observation order
}

// keyOf maps a task's (seed, region) to its scoring unit under the
// configured policy: region granularity only under ScheduleRegion, file
// granularity (region 0) otherwise.
func (s *scheduler) keyOf(seedIdx, region int) qkey {
	if s.cfg.Schedule == ScheduleRegion {
		return qkey{seed: seedIdx, region: region}
	}
	return qkey{seed: seedIdx}
}

// newScheduler indexes the undispatched suffix of the task sequence
// (startSeq is the resume point) and seeds steering from a checkpoint.
func newScheduler(cfg Config, all []*task, startSeq int, st *steering) *scheduler {
	s := &scheduler{
		cfg:      cfg,
		cursor:   startSeq,
		byKey:    make(map[qkey]*unitQueue),
		frontier: make(map[string]bool),
		scores:   make(map[qkey]float64),
		visited:  make(map[qkey]bool),
	}
	if cfg.Schedule == ScheduleRegion {
		s.regionSites = make(map[qkey]map[string]bool)
		s.regionCostNs = make(map[qkey]float64)
		s.regionVariants = make(map[qkey]int)
	}
	for _, t := range all {
		if t.seq < startSeq {
			continue // already merged into the resumed state
		}
		key := s.keyOf(t.plan.seedIdx, t.region)
		q, ok := s.byKey[key]
		if !ok {
			q = &unitQueue{key: key}
			s.byKey[key] = q
			s.units = append(s.units, q)
		}
		q.tasks = append(q.tasks, t)
		s.pending++
	}
	if st != nil {
		for _, site := range st.Frontier {
			s.frontier[site] = true
		}
		s.costNs = st.CostNsPerVariant
		if s.cfg.Schedule == ScheduleRegion {
			// v3 per-region state; a v2 checkpoint has none, leaving every
			// region on the optimistic init (advisory, report-safe)
			for ks, score := range st.RegionScoresV3 {
				if k, ok := parseQKey(ks); ok {
					s.scores[k] = score
					s.visited[k] = true
				}
			}
			for ks, cost := range st.RegionCostNs {
				if k, ok := parseQKey(ks); ok {
					s.regionCostNs[k] = cost
				}
			}
			for ks, snap := range st.RegionFrontiers {
				if k, ok := parseQKey(ks); ok {
					set := make(map[string]bool, len(snap))
					snap.AddTo(set)
					s.regionSites[k] = set
				}
			}
		} else {
			for seed, score := range st.RegionScores {
				k := qkey{seed: seed}
				s.scores[k] = score
				s.visited[k] = true
			}
		}
		if n := len(s.frontier); n > 0 {
			// the resumed curve restarts at the restored frontier
			s.curve = append(s.curve, CoveragePoint{Variants: 0, Sites: n})
		}
	}
	return s
}

// score returns a scoring unit's dispatch priority under the coverage and
// region policies.
func (s *scheduler) score(k qkey) float64 {
	if !s.visited[k] {
		return optimisticScore
	}
	return s.scores[k]
}

// pop hands out the next task to dispatch, or ok=false when every task has
// been dispatched. The caller must hold one free dispatch credit, which is
// what guarantees an eligible candidate exists (see the package comment on
// the lookahead invariant).
//
// lastCredit must be true when the caller holds the final free dispatch
// credit. Liveness depends on it: the merge cursor only advances through
// dispatched seqs, and credits only return on merges, so spending the last
// credit on anything but the lowest undispatched seq could leave the
// aggregator waiting forever on a task no credit remains to dispatch.
// Forcing the head-of-line pick there guarantees every seq at or below the
// forced one is in flight, so the merge (and the credit supply) always
// recovers — and in exchange every other pick is free to chase novelty.
func (s *scheduler) pop(lastCredit bool) (*task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending == 0 {
		return nil, false
	}
	horizon := s.cursor + s.cfg.Lookahead
	prioritize := (s.cfg.Schedule == ScheduleCoverage || s.cfg.Schedule == ScheduleRegion) && !lastCredit
	var best, min *unitQueue
	for _, q := range s.units {
		t := q.peek()
		if t == nil {
			continue
		}
		if min == nil || t.seq < min.peek().seq {
			min = q
		}
		if !prioritize || t.seq >= horizon {
			continue
		}
		if best == nil {
			best = q
			continue
		}
		bs, qs := s.score(best.key), s.score(q.key)
		if qs > bs || (qs == bs && t.seq < best.peek().seq) {
			best = q
		}
	}
	// fifo, the last-credit case, and the no-eligible-head fallback all
	// dispatch head-of-line
	q := min
	if best != nil {
		q = best
	}
	t := q.peek()
	q.head++
	s.pending--
	return t, true
}

// observe folds one completed shard's report back into the steering state:
// frontier growth, unit novelty, cost models, and the coverage curve.
// Called on arrival (not merge) so feedback reaches dispatch decisions as
// early as possible. It reports the shard's coverage point, whether the
// shard pushed the campaign-wide frontier (novel), and — under the region
// policy — the shard's region-curve sample when it pushed its region's
// frontier, for the campaign's telemetry; steering itself never depends on
// the return values.
func (s *scheduler) observe(r *taskResult) (CoveragePoint, bool, *RegionCoveragePoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.ranVariants == 0 {
		return CoveragePoint{}, false, nil // header of a skipped/empty file: no information
	}
	novel := r.sites.AddTo(s.frontier)
	key := s.keyOf(r.plan.seedIdx, r.region)
	if !s.visited[key] {
		s.visited[key] = true
		s.scores[key] = float64(novel)
	} else {
		s.scores[key] = noveltyDecay*s.scores[key] + float64(novel)
	}
	var sample float64
	if r.ranVariants > 0 && r.elapsedNs > 0 {
		sample = float64(r.elapsedNs) / float64(r.ranVariants)
		if s.costNs == 0 {
			s.costNs = sample
		} else {
			s.costNs = costDecay*s.costNs + (1-costDecay)*sample
		}
	}
	var rp *RegionCoveragePoint
	if s.cfg.Schedule == ScheduleRegion {
		if sample > 0 {
			if c := s.regionCostNs[key]; c == 0 {
				s.regionCostNs[key] = sample
			} else {
				s.regionCostNs[key] = costDecay*c + (1-costDecay)*sample
			}
		}
		set := s.regionSites[key]
		if set == nil {
			set = make(map[string]bool, len(r.sites))
			s.regionSites[key] = set
		}
		regionNovel := r.sites.AddTo(set)
		s.regionVariants[key] += r.ranVariants
		if regionNovel > 0 {
			rp = &RegionCoveragePoint{
				Seed:     key.seed,
				Region:   key.region,
				Variants: s.regionVariants[key],
				Sites:    len(set),
			}
		}
	}
	s.variants += r.ranVariants
	point := CoveragePoint{Variants: s.variants, Sites: len(s.frontier)}
	if novel > 0 {
		s.curve = append(s.curve, point)
	}
	return point, novel > 0, rp
}

// costSample reports the EWMA cost model's current per-variant estimate in
// nanoseconds (0 = unlearned). Telemetry-facing; dispatch never reads it.
func (s *scheduler) costSample() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.costNs
}

// advance tracks the aggregator's merge cursor, widening the eligibility
// horizon. The engine calls it under the lock that frees the merged
// task's dispatch credit, so no dispatch sees the freed credit without the
// advanced cursor, which is what keeps the pop invariant sound.
func (s *scheduler) advance(cursor int) {
	s.mu.Lock()
	s.cursor = cursor
	s.mu.Unlock()
}

// steeringSnapshot captures the persistent half of the scheduler for a
// checkpoint write.
func (s *scheduler) steeringSnapshot() *steering {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &steering{CostNsPerVariant: s.costNs}
	if len(s.frontier) > 0 {
		st.Frontier = make(minicc.Snapshot, 0, len(s.frontier))
		for site := range s.frontier {
			st.Frontier = append(st.Frontier, site)
		}
		sort.Strings(st.Frontier)
	}
	if s.cfg.Schedule == ScheduleRegion {
		if len(s.scores) > 0 {
			st.RegionScoresV3 = make(map[string]float64, len(s.scores))
			for k, score := range s.scores {
				st.RegionScoresV3[k.String()] = score
			}
		}
		if len(s.regionCostNs) > 0 {
			st.RegionCostNs = make(map[string]float64, len(s.regionCostNs))
			for k, cost := range s.regionCostNs {
				st.RegionCostNs[k.String()] = cost
			}
		}
		if len(s.regionSites) > 0 {
			st.RegionFrontiers = make(map[string]minicc.Snapshot, len(s.regionSites))
			for k, set := range s.regionSites {
				snap := make(minicc.Snapshot, 0, len(set))
				for site := range set {
					snap = append(snap, site)
				}
				sort.Strings(snap)
				st.RegionFrontiers[k.String()] = snap
			}
		}
	} else if len(s.scores) > 0 {
		st.RegionScores = make(map[int]float64, len(s.scores))
		for k, score := range s.scores {
			st.RegionScores[k.seed] = score
		}
	}
	return st
}

// regionStatuses snapshots every scoring unit's live steering state for
// the telemetry /status surface, sorted by (seed, region).
func (s *scheduler) regionStatuses() []RegionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RegionStatus, 0, len(s.units))
	for _, q := range s.units {
		rs := RegionStatus{
			Seed:    q.key.seed,
			Region:  q.key.region,
			Pending: len(q.tasks) - q.head,
			CostNs:  s.regionCostNs[q.key],
		}
		if s.visited[q.key] {
			rs.Score = s.scores[q.key]
		} else {
			rs.Score = optimisticScore
		}
		rs.Sites = len(s.regionSites[q.key])
		rs.Variants = s.regionVariants[q.key]
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seed != out[j].Seed {
			return out[i].Seed < out[j].Seed
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// curveSnapshot returns the coverage-over-time curve observed so far.
func (s *scheduler) curveSnapshot() []CoveragePoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CoveragePoint(nil), s.curve...)
}
