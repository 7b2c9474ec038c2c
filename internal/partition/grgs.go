package partition

import (
	"fmt"
	"math/big"
)

// Problem is the abstract combinatorial form of a scoped SPE instance
// (paper §4.2.1): n holes must each be filled with one variable drawn from a
// per-hole set of admissible variables, and two fillings are equivalent iff
// one maps to the other under a compact alpha-renaming. Variables are
// grouped into interchangeability classes: two variables in the same group
// are admissible at exactly the same holes and may be exchanged by a compact
// alpha-renaming that fixes the skeleton (same scope, same type, same
// declaration shape). The group of renamings is therefore the direct product
// of the full symmetric groups on each group.
type Problem struct {
	// NumHoles is the number of holes n.
	NumHoles int
	// GroupSizes[g] is the number of interchangeable variables in group g.
	GroupSizes []int
	// Allowed[i] lists, in increasing order, the groups admissible at hole
	// i. Every hole must admit at least one non-empty group.
	Allowed [][]int
}

// Validate reports a descriptive error if the problem is malformed.
func (p *Problem) Validate() error {
	if p.NumHoles < 0 {
		return fmt.Errorf("partition: negative hole count %d", p.NumHoles)
	}
	if len(p.Allowed) != p.NumHoles {
		return fmt.Errorf("partition: %d holes but %d allowed-sets", p.NumHoles, len(p.Allowed))
	}
	for g, sz := range p.GroupSizes {
		if sz < 0 {
			return fmt.Errorf("partition: group %d has negative size %d", g, sz)
		}
	}
	for i, as := range p.Allowed {
		if len(as) == 0 {
			return fmt.Errorf("partition: hole %d admits no groups", i)
		}
		total := 0
		for j, g := range as {
			if g < 0 || g >= len(p.GroupSizes) {
				return fmt.Errorf("partition: hole %d references unknown group %d", i, g)
			}
			if j > 0 && as[j-1] >= g {
				return fmt.Errorf("partition: hole %d allowed-set not strictly increasing", i)
			}
			total += p.GroupSizes[g]
		}
		if total == 0 {
			return fmt.Errorf("partition: hole %d admits only empty groups", i)
		}
	}
	return nil
}

// VarRef identifies a concrete variable: the Index-th member (0-based) of
// group Group.
type VarRef struct {
	Group int
	Index int
}

// EachCanonical enumerates exactly one filling per compact-alpha-equivalence
// class of the problem, in lexicographic order of the (group, index)
// sequences. The fill slice passed to yield is reused across calls; copy to
// retain. Enumeration stops early if yield returns false. Returns the number
// of fillings yielded.
//
// Canonical form: restricted to the holes filled from any single group g,
// the member indices form a restricted growth string (index j may appear
// only after indices 0..j-1 of the same group have appeared). Because the
// renaming group acts independently and fully symmetrically on each group,
// every equivalence class contains exactly one such filling.
func (p *Problem) EachCanonical(yield func(fill []VarRef) bool) int {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fill := make([]VarRef, p.NumHoles)
	used := make([]int, len(p.GroupSizes))
	count := 0
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.NumHoles {
			count++
			return yield(fill)
		}
		for _, g := range p.Allowed[i] {
			// already-introduced members of g, plus at most one fresh member
			limit := used[g]
			fresh := used[g] < p.GroupSizes[g]
			for idx := 0; idx < limit; idx++ {
				fill[i] = VarRef{Group: g, Index: idx}
				if !rec(i + 1) {
					return false
				}
			}
			if fresh {
				fill[i] = VarRef{Group: g, Index: used[g]}
				used[g]++
				ok := rec(i + 1)
				used[g]--
				if !ok {
					return false
				}
			}
		}
		return true
	}
	rec(0)
	return count
}

// EachNaive enumerates every filling of the problem (the full Cartesian
// product of per-hole admissible variables), without any equivalence
// reduction. Semantics of yield match EachCanonical. Returns the count
// yielded.
func (p *Problem) EachNaive(yield func(fill []VarRef) bool) int {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	fill := make([]VarRef, p.NumHoles)
	count := 0
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == p.NumHoles {
			count++
			return yield(fill)
		}
		for _, g := range p.Allowed[i] {
			for idx := 0; idx < p.GroupSizes[g]; idx++ {
				fill[i] = VarRef{Group: g, Index: idx}
				if !rec(i + 1) {
					return false
				}
			}
		}
		return true
	}
	rec(0)
	return count
}

// NaiveCount returns the size of the naive enumeration set,
// prod_i sum_{g in Allowed[i]} |g| (paper §3.1).
func (p *Problem) NaiveCount() *big.Int {
	total := big.NewInt(1)
	for _, as := range p.Allowed {
		s := 0
		for _, g := range as {
			s += p.GroupSizes[g]
		}
		total.Mul(total, big.NewInt(int64(s)))
	}
	if p.NumHoles == 0 {
		return big.NewInt(1)
	}
	return total
}

// CanonicalCount returns the number of canonical fillings (= the number of
// compact-alpha-equivalence classes) without enumerating them: the total of
// the problem's suffix-count table (see Ranker).
func (p *Problem) CanonicalCount() *big.Int {
	return p.NewRanker().Count()
}

// OrbitCountBurnside returns the number of compact-alpha-equivalence classes
// computed independently via Burnside's lemma over the renaming group
// G = prod_g Sym(GroupSizes[g]):
//
//	|orbits| = (1 / |G|) * sum_{sigma in G} |fillings fixed by sigma|
//
// A filling is fixed by sigma iff every hole is filled with a fixed point of
// sigma, so the count depends only on the number of fixed points per group.
// Summing over fixed-point profiles (f_1..f_m) weighted by the number of
// permutations realizing each profile gives an exact polynomial-size
// computation. Used as an independent oracle for CanonicalCount in tests.
func (p *Problem) OrbitCountBurnside() *big.Int {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := len(p.GroupSizes)
	numerator := new(big.Int)
	profile := make([]int, m)
	var rec func(g int, weight *big.Int)
	rec = func(g int, weight *big.Int) {
		if g == m {
			// product over holes of total fixed points available
			prod := new(big.Int).Set(weight)
			for _, as := range p.Allowed {
				s := 0
				for _, gg := range as {
					s += profile[gg]
				}
				prod.Mul(prod, big.NewInt(int64(s)))
				if s == 0 {
					break
				}
			}
			numerator.Add(numerator, prod)
			return
		}
		for f := 0; f <= p.GroupSizes[g]; f++ {
			profile[g] = f
			w := new(big.Int).Mul(weight, PermsWithFixedPoints(p.GroupSizes[g], f))
			rec(g+1, w)
		}
	}
	rec(0, big.NewInt(1))
	order := big.NewInt(1)
	for _, sz := range p.GroupSizes {
		order.Mul(order, Factorial(sz))
	}
	q, r := new(big.Int).QuoRem(numerator, order, new(big.Int))
	if r.Sign() != 0 {
		panic("partition: Burnside count not integral; group structure violated")
	}
	return q
}

// CanonicalizeFill returns the canonical representative of the equivalence
// class containing fill: per group, member indices are relabeled in first-
// occurrence order. The input is not modified.
func (p *Problem) CanonicalizeFill(fill []VarRef) []VarRef {
	out := make([]VarRef, len(fill))
	relabel := make([]map[int]int, len(p.GroupSizes))
	next := make([]int, len(p.GroupSizes))
	for i, vr := range fill {
		if relabel[vr.Group] == nil {
			relabel[vr.Group] = make(map[int]int)
		}
		idx, ok := relabel[vr.Group][vr.Index]
		if !ok {
			idx = next[vr.Group]
			relabel[vr.Group][vr.Index] = idx
			next[vr.Group]++
		}
		out[i] = VarRef{Group: vr.Group, Index: idx}
	}
	return out
}

// FillKey returns a compact string key identifying a filling, suitable for
// use as a map key when deduplicating fillings.
func FillKey(fill []VarRef) string {
	b := make([]byte, 0, len(fill)*2)
	for _, vr := range fill {
		b = append(b, byte(vr.Group), byte(vr.Index))
	}
	return string(b)
}
