package partition

import (
	"math/big"
	"math/rand"
	"testing"
)

// rankProblems is a mix of hand-built and random instances exercising the
// ranker: the paper's Figure 7, scope-free Stirling shapes, and random
// multi-group problems like those in grgs_test.
func rankProblems(t *testing.T) []*Problem {
	t.Helper()
	ps := []*Problem{
		figure7(),
		{NumHoles: 0, GroupSizes: []int{}, Allowed: [][]int{}},
		{NumHoles: 1, GroupSizes: []int{3}, Allowed: [][]int{{0}}},
		{NumHoles: 6, GroupSizes: []int{3}, Allowed: [][]int{{0}, {0}, {0}, {0}, {0}, {0}}},
		{
			NumHoles:   7,
			GroupSizes: []int{2, 3, 1},
			Allowed:    [][]int{{0}, {0, 1}, {1}, {0, 1, 2}, {2}, {1, 2}, {0, 2}},
		},
	}
	rng := rand.New(rand.NewSource(20170612))
	for trial := 0; trial < 20; trial++ {
		numGroups := 1 + rng.Intn(3)
		sizes := make([]int, numGroups)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(3)
		}
		numHoles := 1 + rng.Intn(6)
		allowed := make([][]int, numHoles)
		for i := range allowed {
			for g := 0; g < numGroups; g++ {
				if rng.Intn(2) == 0 {
					allowed[i] = append(allowed[i], g)
				}
			}
			if len(allowed[i]) == 0 {
				allowed[i] = []int{rng.Intn(numGroups)}
			}
		}
		p := &Problem{NumHoles: numHoles, GroupSizes: sizes, Allowed: allowed}
		if p.Validate() != nil {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// TestRankUnrankRoundTrip asserts Unrank(Rank(fill)) == fill and
// Rank(fill) == enumeration position for every canonical filling.
func TestRankUnrankRoundTrip(t *testing.T) {
	for pi, p := range rankProblems(t) {
		r := p.NewRanker()
		if got, want := r.Count(), p.OrbitCountBurnside(); got.Cmp(want) != 0 {
			t.Errorf("problem %d: ranker count %s, want %s", pi, got, want)
			continue
		}
		pos := int64(0)
		p.EachCanonical(func(fill []VarRef) bool {
			rank, err := r.Rank(fill)
			if err != nil {
				t.Errorf("problem %d: rank(%v): %v", pi, fill, err)
				return false
			}
			if rank.Cmp(big.NewInt(pos)) != 0 {
				t.Errorf("problem %d: fill %v ranked %s, want %d", pi, fill, rank, pos)
				return false
			}
			back, err := r.Unrank(rank)
			if err != nil {
				t.Errorf("problem %d: unrank(%s): %v", pi, rank, err)
				return false
			}
			if FillKey(back) != FillKey(fill) {
				t.Errorf("problem %d: unrank(%d) = %v, want %v", pi, pos, back, fill)
				return false
			}
			pos++
			return true
		})
		// out-of-range ranks must error
		if _, err := r.Unrank(r.Count()); err == nil {
			t.Errorf("problem %d: unrank(count) did not error", pi)
		}
		if _, err := r.Unrank(big.NewInt(-1)); err == nil {
			t.Errorf("problem %d: unrank(-1) did not error", pi)
		}
	}
}

// TestRankRejectsNonCanonical asserts that fillings breaking the restricted
// growth property are rejected.
func TestRankRejectsNonCanonical(t *testing.T) {
	p := figure7()
	r := p.NewRanker()
	// index 1 of group 0 used before index 0: not a restricted growth string
	bad := []VarRef{{0, 1}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	if _, err := r.Rank(bad); err == nil {
		t.Error("rank accepted a non-canonical filling")
	}
	if _, err := r.Rank([]VarRef{{0, 0}}); err == nil {
		t.Error("rank accepted a short filling")
	}
	// group 1 is not admissible at hole 0
	if _, err := r.Rank([]VarRef{{1, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}); err == nil {
		t.Error("rank accepted an inadmissible group")
	}
}

// TestRankerTableReadOnly asserts that looking up a profile NewRanker did
// not reach panics instead of filling the table: the table a shared
// Ranker reads never changes after construction.
func TestRankerTableReadOnly(t *testing.T) {
	r := figure7().NewRanker()
	size := 0
	for _, m := range r.table {
		size += len(m)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("lookup of an unreachable profile did not panic")
			}
		}()
		// group 1 is first admissible at hole 3, so no prefix of holes
		// 0..0 uses it
		r.suffix(1, []int{1, 1})
	}()
	after := 0
	for _, m := range r.table {
		after += len(m)
	}
	if after != size {
		t.Errorf("table grew from %d to %d entries", size, after)
	}
}

// TestShardConcatenation asserts that concatenating K contiguous shards,
// each unranked position by position the way campaign shards are,
// reproduces EachCanonical's exact sequence and CanonicalCount total.
func TestShardConcatenation(t *testing.T) {
	for pi, p := range rankProblems(t) {
		var want []string
		p.EachCanonical(func(fill []VarRef) bool {
			want = append(want, FillKey(fill))
			return true
		})
		total := p.CanonicalCount()
		if total.Cmp(big.NewInt(int64(len(want)))) != 0 {
			t.Fatalf("problem %d: canonical count %s but enumerated %d", pi, total, len(want))
		}
		r := p.NewRanker()
		for _, shards := range []int{1, 2, 3, 7} {
			var got []string
			for k := 0; k < shards; k++ {
				lo := int64(k) * int64(len(want)) / int64(shards)
				hi := int64(k+1) * int64(len(want)) / int64(shards)
				for pos := lo; pos < hi; pos++ {
					fill, err := r.Unrank(big.NewInt(pos))
					if err != nil {
						t.Fatalf("problem %d: shard %d/%d: unrank(%d): %v", pi, k, shards, pos, err)
					}
					got = append(got, FillKey(fill))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("problem %d: %d shards yielded %d fills, want %d", pi, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("problem %d: %d shards diverge at position %d", pi, shards, i)
				}
			}
		}
		// a shard starting at the total has nothing to unrank
		if _, err := r.Unrank(total); err == nil {
			t.Errorf("problem %d: unrank(count) did not error", pi)
		}
	}
}
