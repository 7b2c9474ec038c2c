package spe

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"spe/internal/cc"
	"spe/internal/partition"
	"spe/internal/skeleton"
)

// table is the read-only ranking data of one skeleton at one granularity.
// Its units are the digits of the canonical sequence's mixed-radix index,
// most significant first: one per function under Intra, and one spanning
// the whole skeleton under Inter. Each unit keeps its Ranker and canonical
// count. A table is built once and never written after, so a Pool and
// every Space it hands out share one.
type table struct {
	sk    *skeleton.Skeleton
	inter bool
	units []unit
	total *big.Int
}

// unit is one digit of a table: a problem, its Ranker and its count.
type unit struct {
	*skeleton.FuncProblem
	ranker *partition.Ranker
	count  *big.Int
}

// newTable builds the ranking table. Only ModeCanonical is supported: the
// naive sequence needs no ranker (it is a plain mixed-radix product) and
// ModePaper is count-only.
func newTable(sk *skeleton.Skeleton, opts Options) (*table, error) {
	if opts.Mode != ModeCanonical {
		return nil, fmt.Errorf("spe: Space requires ModeCanonical, got %v", opts.Mode)
	}
	t := &table{sk: sk, inter: opts.Granularity == Inter, total: big.NewInt(1)}
	for _, fp := range units(sk, opts.Granularity) {
		r := fp.Problem.NewRanker()
		c := r.Count()
		t.units = append(t.units, unit{FuncProblem: fp, ranker: r, count: c})
		t.total.Mul(t.total, c)
	}
	return t, nil
}

// Space is a random-access view of a skeleton's canonical enumeration
// sequence: Total() is its size and FillAt(i) returns the i-th filling of
// EnumerateFills' order without enumerating the i-1 before it. The
// sequence is the Cartesian product of the per-unit canonical sequences
// (one unit per function under Intra granularity, one for the whole
// skeleton under Inter), so a global index is a mixed-radix numeral whose
// digits are per-unit ranks (the first unit is the most significant digit,
// matching EnumerateFills' recursion order).
//
// Beside the textual RenderAt, a Space serves typed programs: ProgramAt
// patches a pooled AST-resident skeleton.Instance to the indexed filling
// and hands back the analyzed *cc.Program directly, skipping the
// render→re-lex→re-parse→re-sema cycle entirely. FillDeltaAt exposes the
// underlying incremental unranking (per-unit rank digits are cached, so
// stride-neighbor indices only unrank the units whose digit moved).
//
// Concurrency contract: a Space is a cursor over a shared, read-only
// ranking table. The cursor — the delta-unranking cache and the instance
// free list — is mutable and strictly single-goroutine. Concurrent callers
// go through a Pool, which owns the table and hands each goroutine a
// private cursor over it; sharing one Space across goroutines without a
// Pool is a data race, enforced by the race-detector tests over the
// campaign hot path.
type Space struct {
	t *table

	// delta-unranking cache: the per-unit rank digits and whole-skeleton
	// filling of the last FillDeltaAt call. prevBuf and changed are reused
	// scratch space so the per-variant hot path stays allocation-free.
	lastDigits []*big.Int
	lastFill   []partition.VarRef
	prevBuf    []partition.VarRef
	changed    []int

	// instances is a LIFO free list for ProgramAt: releasing and
	// re-acquiring yields the same instance, so consecutive ProgramAt calls
	// patch only the holes that differ between neighboring fillings.
	instances []*skeleton.Instance
	// CheckedRebind makes every instance patch assert the sema invariants
	// (visibility, type compatibility) before applying — the spe half of
	// the campaign engine's -paranoid mode.
	CheckedRebind bool
}

// NewSpace builds a ranking table and a Space over it. Callers that want
// several Spaces over one skeleton share a table through a Pool instead.
func NewSpace(sk *skeleton.Skeleton, opts Options) (*Space, error) {
	t, err := newTable(sk, opts)
	if err != nil {
		return nil, err
	}
	return &Space{t: t}, nil
}

// Total returns the number of fillings in the sequence (the skeleton's
// canonical count).
func (s *Space) Total() *big.Int { return new(big.Int).Set(s.t.total) }

// checkIndex reports an error for an index outside [0, Total).
func (s *Space) checkIndex(idx *big.Int) error {
	if idx.Sign() < 0 || idx.Cmp(s.t.total) >= 0 {
		return fmt.Errorf("spe: fill index %s out of range [0, %s)", idx, s.t.total)
	}
	return nil
}

// FillAt returns the idx-th whole-skeleton filling of the canonical
// enumeration order. The returned slice is freshly allocated.
func (s *Space) FillAt(idx *big.Int) ([]partition.VarRef, error) {
	if err := s.checkIndex(idx); err != nil {
		return nil, err
	}
	whole := s.t.sk.OriginalFill()
	for i, d := range s.digitsOf(idx) {
		if err := s.t.unrank(whole, i, d); err != nil {
			return nil, err
		}
	}
	return whole, nil
}

// FillDeltaAt is FillAt with incremental unranking: the Space caches the
// per-unit rank digits of its previous call and re-unranks only the units
// whose digit changed, which is what makes walking stride neighbors within
// a shard cheap (the low-order functions vary, the rest stand still). It
// returns the filling plus the sorted hole indices whose variable differs
// from the previous call's filling (all holes on the first call). Both
// slices are owned by the Space and valid until the next FillDeltaAt call.
func (s *Space) FillDeltaAt(idx *big.Int) ([]partition.VarRef, []int, error) {
	if err := s.checkIndex(idx); err != nil {
		return nil, nil, err
	}
	first := s.lastFill == nil
	if first {
		s.lastFill = s.t.sk.OriginalFill()
	}
	s.prevBuf = append(s.prevBuf[:0], s.lastFill...)
	digits := s.digitsOf(idx)
	for i, d := range digits {
		if !first && d.Cmp(s.lastDigits[i]) == 0 {
			continue // this unit's rank did not move: keep its holes
		}
		if err := s.t.unrank(s.lastFill, i, d); err != nil {
			s.lastFill = nil
			return nil, nil, err
		}
	}
	s.lastDigits = digits
	s.changed = s.changed[:0]
	for i, vr := range s.lastFill {
		if first || vr != s.prevBuf[i] {
			s.changed = append(s.changed, i)
		}
	}
	return s.lastFill, s.changed, nil
}

// digitsOf extracts idx's per-unit mixed-radix rank digits.
func (s *Space) digitsOf(idx *big.Int) []*big.Int {
	digits := make([]*big.Int, len(s.t.units))
	rem := new(big.Int).Set(idx)
	for i := len(s.t.units) - 1; i >= 0; i-- {
		q, m := new(big.Int).QuoRem(rem, s.t.units[i].count, new(big.Int))
		digits[i] = m
		rem = q
	}
	return digits
}

// unrank writes unit i's filling of rank digit into the whole-skeleton
// filling.
func (t *table) unrank(whole []partition.VarRef, i int, digit *big.Int) error {
	fill, err := t.units[i].ranker.Unrank(digit)
	if err != nil {
		return err
	}
	scatter(whole, t.units[i].FuncProblem, fill)
	return nil
}

// RenderAt renders the program at the given enumeration index. This is the
// textual (render) path; the campaign hot path uses ProgramAt instead and
// renders lazily only when a finding needs reproduction text.
func (s *Space) RenderAt(idx *big.Int) (string, error) {
	fill, err := s.FillAt(idx)
	if err != nil {
		return "", err
	}
	return s.t.sk.Render(fill), nil
}

// ProgramAt returns the analyzed program at the given enumeration index by
// patching a pooled AST-resident instance — no lexing, parsing, or semantic
// analysis happens per variant. The program is valid until release is
// called; release returns the instance to the Space's free list, where the
// next ProgramAt call reuses it (and, for neighboring indices, patches only
// the holes that moved). Printing the program with cc.PrintFile yields
// exactly RenderAt's bytes.
func (s *Space) ProgramAt(idx *big.Int) (*cc.Program, func(), error) {
	in, release, err := s.AcquireAt(idx)
	if err != nil {
		return nil, nil, err
	}
	return in.Program(), release, nil
}

// AcquireAt is ProgramAt exposing the instance itself: callers that key
// per-skeleton backend state (the campaign's interpreter machines and
// compiler IR-template caches) need the instance's hole→use-site metadata
// (Instance.HoleIdents) alongside the program. The instance is owned by the
// caller until release is called and must not be used after.
func (s *Space) AcquireAt(idx *big.Int) (*skeleton.Instance, func(), error) {
	fill, _, err := s.FillDeltaAt(idx)
	if err != nil {
		return nil, nil, err
	}
	var in *skeleton.Instance
	if n := len(s.instances); n > 0 {
		in = s.instances[n-1]
		s.instances = s.instances[:n-1]
	} else {
		in = s.t.sk.NewInstance()
	}
	in.Checked = s.CheckedRebind
	if err := in.Instantiate(fill); err != nil {
		return nil, nil, err
	}
	release := func() { s.instances = append(s.instances, in) }
	return in, release, nil
}

// Pool shares one skeleton's enumeration across goroutines. It owns the
// skeleton's ranking table, built once in NewPool and only read after,
// and hands each caller a private Space: a cursor over that table. It is
// the enforced concurrency API over Space: Get/Put are safe from any
// goroutine, while everything on the Space itself remains single-goroutine
// between a Get and its Put. Pooled Spaces keep their delta-unranking
// cache and template instances across uses, so shard workers draining one
// file amortize those allocations instead of rebuilding them per shard; a
// Get that finds no pooled Space builds only a new cursor.
type Pool struct {
	t    *table
	pool sync.Pool
	// CheckedRebind is propagated to every Space the pool hands out.
	CheckedRebind bool
	// hits/misses count Gets served by a recycled Space versus a fresh
	// cursor — telemetry the campaign's /metrics surface sums at scrape
	// time (see Stats). One atomic add per Get, i.e. per shard task.
	hits, misses atomic.Int64
}

// Stats reports how many Gets were served by a recycled Space (hits)
// versus building a fresh cursor (misses). Purely observational.
func (p *Pool) Stats() (hits, misses int64) { return p.hits.Load(), p.misses.Load() }

// NewPool builds the skeleton's ranking table and returns the pool, with
// one Space kept for the first Get.
func NewPool(sk *skeleton.Skeleton, opts Options) (*Pool, error) {
	t, err := newTable(sk, opts)
	if err != nil {
		return nil, err
	}
	p := &Pool{t: t}
	p.pool.Put(&Space{t: t})
	return p, nil
}

// Total returns the number of fillings in the pool's sequence (the
// skeleton's canonical count at the pool's granularity).
func (p *Pool) Total() *big.Int { return new(big.Int).Set(p.t.total) }

// Get hands out a Space for exclusive use by the calling goroutine.
func (p *Pool) Get() *Space {
	s, ok := p.pool.Get().(*Space)
	if ok {
		p.hits.Add(1)
	} else {
		p.misses.Add(1)
		s = &Space{t: p.t}
	}
	s.CheckedRebind = p.CheckedRebind
	return s
}

// Put returns a Space obtained from Get. The Space must not be used after.
func (p *Pool) Put(s *Space) { p.pool.Put(s) }
