package partition

import (
	"fmt"
	"math/big"
)

// Ranker indexes the canonical enumeration order of a Problem: it maps any
// canonical filling to its 0-based position in EachCanonical's sequence
// (Rank) and maps a position back to its filling (Unrank). Together these
// let the canonical variant space be cut into contiguous shards that
// independent workers unrank without coordination.
//
// The machinery is the counting side of the paper's Algorithm 1 turned into
// a positional number system: the number of canonical completions of a
// suffix of holes depends only on the per-group used-variable counts, so a
// suffix-count table plays the role the Stirling/product arithmetic plays
// in the paper's count, and ranking is digit extraction against those
// counts.
//
// NewRanker builds the whole table; every method after that only reads it,
// so one Ranker is safe for concurrent use and is meant to be shared (spe
// shares one per function between the plan's count and every Space of a
// file's pool). All big.Int values read from the table are shared and
// must not be mutated.
type Ranker struct {
	p *Problem
	// table[i][usedKey] is the number of canonical completions of holes
	// i..n-1 under the used-variable profile encoded by usedKey, for every
	// profile reachable from the empty one.
	table []map[string]*big.Int
}

// NewRanker validates the problem and builds its suffix-count table.
func (p *Problem) NewRanker() *Ranker {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := &Ranker{p: p, table: make([]map[string]*big.Int, p.NumHoles)}
	for i := range r.table {
		r.table[i] = make(map[string]*big.Int)
	}
	r.build(0, make([]int, len(p.GroupSizes)))
	return r
}

var rankOne = big.NewInt(1)

func usedKey(used []int) string {
	b := make([]byte, len(used))
	for i, u := range used {
		b[i] = byte(u)
	}
	return string(b)
}

// build records the suffix count of (i, used) and of every profile
// reachable from it. It is the table's only writer and runs inside
// NewRanker.
func (r *Ranker) build(i int, used []int) *big.Int {
	if i == r.p.NumHoles {
		return rankOne
	}
	k := usedKey(used)
	if v, ok := r.table[i][k]; ok {
		return v
	}
	total := new(big.Int)
	var tmp big.Int
	for _, g := range r.p.Allowed[i] {
		if used[g] > 0 {
			tmp.SetInt64(int64(used[g]))
			tmp.Mul(&tmp, r.build(i+1, used))
			total.Add(total, &tmp)
		}
		if used[g] < r.p.GroupSizes[g] {
			used[g]++
			total.Add(total, r.build(i+1, used))
			used[g]--
		}
	}
	r.table[i][k] = total
	return total
}

// suffix returns the number of canonical completions of holes i..n-1 given
// the used profile. It only reads the table: every profile of a canonical
// prefix is reachable, so a missing one is a bug and panics. The result
// is shared; do not mutate.
func (r *Ranker) suffix(i int, used []int) *big.Int {
	if i == r.p.NumHoles {
		return rankOne
	}
	v, ok := r.table[i][usedKey(used)]
	if !ok {
		panic(fmt.Sprintf("partition: profile %v at hole %d is not in the ranking table", used, i))
	}
	return v
}

// Count returns the size of the canonical enumeration: the table's suffix
// count from the first hole under the empty profile.
func (r *Ranker) Count() *big.Int {
	return new(big.Int).Set(r.suffix(0, make([]int, len(r.p.GroupSizes))))
}

// Rank returns the 0-based position of the canonical filling in
// EachCanonical's order. It errors if fill is not a canonical filling of
// the problem (wrong length, inadmissible group, or a member index that
// breaks the restricted-growth property).
func (r *Ranker) Rank(fill []VarRef) (*big.Int, error) {
	p := r.p
	if len(fill) != p.NumHoles {
		return nil, fmt.Errorf("partition: rank: fill length %d, want %d", len(fill), p.NumHoles)
	}
	used := make([]int, len(p.GroupSizes))
	rank := new(big.Int)
	var tmp big.Int
	for i, vr := range fill {
		admissible := false
		for _, g := range p.Allowed[i] {
			if g == vr.Group {
				admissible = true
				break
			}
		}
		if !admissible {
			return nil, fmt.Errorf("partition: rank: hole %d filled from inadmissible group %d", i, vr.Group)
		}
		if vr.Index < 0 || vr.Index > used[vr.Group] || vr.Index >= p.GroupSizes[vr.Group] {
			return nil, fmt.Errorf("partition: rank: hole %d index %d breaks restricted growth (used %d of %d)",
				i, vr.Index, used[vr.Group], p.GroupSizes[vr.Group])
		}
		// count the choices enumerated before (vr.Group, vr.Index) at this
		// hole: whole earlier groups, then earlier members of vr.Group
		for _, g := range p.Allowed[i] {
			if g == vr.Group {
				break
			}
			if used[g] > 0 {
				tmp.SetInt64(int64(used[g]))
				tmp.Mul(&tmp, r.suffix(i+1, used))
				rank.Add(rank, &tmp)
			}
			if used[g] < p.GroupSizes[g] {
				used[g]++
				rank.Add(rank, r.suffix(i+1, used))
				used[g]--
			}
		}
		if vr.Index > 0 {
			tmp.SetInt64(int64(vr.Index))
			tmp.Mul(&tmp, r.suffix(i+1, used))
			rank.Add(rank, &tmp)
		}
		if vr.Index == used[vr.Group] {
			used[vr.Group]++
		}
	}
	return rank, nil
}

// Unrank returns the canonical filling at 0-based position rank in
// EachCanonical's order, or an error if rank is outside [0, Count).
func (r *Ranker) Unrank(rank *big.Int) ([]VarRef, error) {
	p := r.p
	if rank.Sign() < 0 {
		return nil, fmt.Errorf("partition: unrank: negative rank %s", rank)
	}
	if rank.Cmp(r.suffix(0, make([]int, len(p.GroupSizes)))) >= 0 {
		return nil, fmt.Errorf("partition: unrank: rank %s out of range [0, %s)", rank, r.Count())
	}
	rem := new(big.Int).Set(rank)
	used := make([]int, len(p.GroupSizes))
	fill := make([]VarRef, p.NumHoles)
	var tmp big.Int
	for i := 0; i < p.NumHoles; i++ {
		chosen := false
		for _, g := range p.Allowed[i] {
			// old members of g: used[g] equally-sized subtrees
			if used[g] > 0 {
				sub := r.suffix(i+1, used)
				tmp.SetInt64(int64(used[g]))
				tmp.Mul(&tmp, sub)
				if rem.Cmp(&tmp) < 0 {
					q, m := new(big.Int).QuoRem(rem, sub, new(big.Int))
					fill[i] = VarRef{Group: g, Index: int(q.Int64())}
					rem.Set(m)
					chosen = true
					break
				}
				rem.Sub(rem, &tmp)
			}
			// the fresh member of g
			if used[g] < p.GroupSizes[g] {
				used[g]++
				sub := r.suffix(i+1, used)
				if rem.Cmp(sub) < 0 {
					fill[i] = VarRef{Group: g, Index: used[g] - 1}
					chosen = true
					break
				}
				rem.Sub(rem, sub)
				used[g]--
			}
		}
		if !chosen {
			return nil, fmt.Errorf("partition: unrank: rank %s out of range [0, %s)", rank, r.Count())
		}
	}
	return fill, nil
}
