// Package spe implements skeletal program enumeration: the paper's
// PartitionScope/Algorithm 1 procedure, the provably-canonical grouped
// restricted-growth-string enumerator, naive enumeration, big-integer
// counting for all three, and the thresholded corpus driver used by the
// evaluation harness.
//
// Concurrency and ownership: a Skeleton and its analyzed program are
// immutable after Build and may be shared freely, and so is a skeleton's
// ranking table, which is built once and only read after. Everything
// mutable hangs off a Space — the delta-unranking cache and the pooled
// AST instances — and a Space is strictly single-goroutine; concurrent
// callers go through a Pool, which owns the table and hands each
// goroutine a private Space over it. Programs and instances returned by
// ProgramAt/AcquireAt are exclusively owned until their release function
// is called; workers may read them, hand them to the backends, and patch
// them only through Instantiate — never retain them past release.
package spe

import (
	"fmt"
	"math/big"

	"spe/internal/partition"
)

// TwoLevelConfig is the paper's abstraction of one function in normal form
// (§4.2.2, Figure 7): a set of global holes fillable only by the |v^g|
// global variables, plus t flat local scopes; the holes of scope l are
// fillable by the globals and that scope's |v^l| locals.
//
// Variables are numbered: globals are 0..GlobalVars-1, and scope i's locals
// occupy the next ScopeVars[i] ids in scope order. Holes are in normal
// form: global holes first, then each scope's holes.
type TwoLevelConfig struct {
	GlobalHoles int
	GlobalVars  int
	ScopeHoles  []int
	ScopeVars   []int
}

// Validate reports a descriptive error for malformed configurations.
func (c *TwoLevelConfig) Validate() error {
	if c.GlobalHoles < 0 || c.GlobalVars < 0 {
		return fmt.Errorf("spe: negative global sizes")
	}
	if len(c.ScopeHoles) != len(c.ScopeVars) {
		return fmt.Errorf("spe: %d scope hole counts but %d scope var counts",
			len(c.ScopeHoles), len(c.ScopeVars))
	}
	for i := range c.ScopeHoles {
		if c.ScopeHoles[i] < 0 || c.ScopeVars[i] < 0 {
			return fmt.Errorf("spe: negative sizes in scope %d", i)
		}
	}
	totalHoles := c.GlobalHoles
	for _, h := range c.ScopeHoles {
		totalHoles += h
	}
	if totalHoles > 0 && c.GlobalVars == 0 {
		// the paper's model requires every hole to admit the globals
		if c.GlobalHoles > 0 {
			return fmt.Errorf("spe: global holes with no global variables")
		}
	}
	return nil
}

// NumHoles returns the total hole count.
func (c *TwoLevelConfig) NumHoles() int {
	n := c.GlobalHoles
	for _, h := range c.ScopeHoles {
		n += h
	}
	return n
}

// NumVars returns the total variable count.
func (c *TwoLevelConfig) NumVars() int {
	n := c.GlobalVars
	for _, v := range c.ScopeVars {
		n += v
	}
	return n
}

// scopeVarBase returns the first variable id of scope i.
func (c *TwoLevelConfig) scopeVarBase(i int) int {
	base := c.GlobalVars
	for j := 0; j < i; j++ {
		base += c.ScopeVars[j]
	}
	return base
}

// NaiveCount is the size of the unreduced Cartesian product:
// |v^g|^GlobalHoles * prod_i (|v^g|+|v^i|)^ScopeHoles[i] (paper §3.1).
func (c *TwoLevelConfig) NaiveCount() *big.Int {
	total := new(big.Int).Exp(big.NewInt(int64(c.GlobalVars)), big.NewInt(int64(c.GlobalHoles)), nil)
	if c.GlobalHoles == 0 {
		total.SetInt64(1)
	}
	for i, h := range c.ScopeHoles {
		if h == 0 {
			continue
		}
		k := big.NewInt(int64(c.GlobalVars + c.ScopeVars[i]))
		total.Mul(total, new(big.Int).Exp(k, big.NewInt(int64(h)), nil))
	}
	return total
}

// PaperCount reproduces the arithmetic of the paper's PartitionScope
// procedure and Algorithm 1 exactly (Example 6 evaluates to 36):
//
//	S'_f = SumStirling(n, |v^g|)                       (all holes global)
//	     + sum over per-scope promotions k_i in [0, u_i-1]:
//	         prod_i C(u_i, k_i) * SumStirling(u_i-k_i, |v^i|)
//	         * Stirling2(G + sum k_i, |v^g|)           (exactly-|v^g| blocks)
//
// Note this is the paper's published arithmetic, which both misses some
// compact-alpha classes and double-counts one partition shape relative to
// the exact orbit count (DESIGN.md §2); CanonicalProblem().CanonicalCount()
// gives the exact count.
func (c *TwoLevelConfig) PaperCount() *big.Int {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	total := partition.SumStirling(c.NumHoles(), c.GlobalVars)
	t := len(c.ScopeHoles)
	if t == 0 {
		return total
	}
	var rec func(i, promoted int, weight *big.Int)
	rec = func(i, promoted int, weight *big.Int) {
		if i == t {
			g := c.GlobalHoles + promoted
			term := new(big.Int).Mul(weight, partition.Stirling2(g, c.GlobalVars))
			total.Add(total, term)
			return
		}
		u := c.ScopeHoles[i]
		v := c.ScopeVars[i]
		for k := 0; k <= u-1; k++ {
			w := new(big.Int).Mul(weight, partition.Binomial(u, k))
			w.Mul(w, partition.SumStirling(u-k, v))
			rec(i+1, promoted+k, w)
		}
		// scopes with zero holes contribute the empty choice
		if u == 0 {
			rec(i+1, promoted, weight)
		}
	}
	rec(0, 0, big.NewInt(1))
	return total
}

// EachPaper enumerates the fillings produced by a literal implementation of
// the paper's PartitionScope procedure: the all-global solutions S'_f plus,
// for every combination of promoted local holes, the Cartesian product of
// an exactly-|v^g|-block partition of the global+promoted holes with
// at-most-|v^i|-block partitions of each scope's remaining holes.
//
// assign[i] is the variable id filling hole i (normal form order). The
// slice is reused; copy to retain. Returns the number of fillings yielded,
// which equals PaperCount(); the paper's procedure can emit duplicate
// fillings (one partition shape is reachable through two different
// promotion choices), and duplicates are yielded faithfully.
func (c *TwoLevelConfig) EachPaper(yield func(assign []int) bool) int {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	n := c.NumHoles()
	assign := make([]int, n)
	count := 0
	stop := false
	emit := func() bool {
		count++
		if !yield(assign) {
			stop = true
			return false
		}
		return true
	}

	// S'_f: all holes filled with global variables.
	partition.EachRGS(n, c.GlobalVars, func(rgs []int) bool {
		for i, b := range rgs {
			assign[i] = b // block b -> global variable b
		}
		return emit()
	})
	if stop || len(c.ScopeHoles) == 0 {
		return count
	}

	// scopeHoleOffset[i] is the index in normal form of scope i's first hole.
	offset := make([]int, len(c.ScopeHoles))
	off := c.GlobalHoles
	for i, h := range c.ScopeHoles {
		offset[i] = off
		off += h
	}

	// promoted[i] holds the chosen promoted holes of scope i (hole indices
	// local to the scope).
	promoted := make([][]int, len(c.ScopeHoles))

	var assignScopes func(i int) bool
	// assignScopes enumerates local partitions for scopes i..t-1 and then
	// the global partition; returns false to abort everything.
	var assignGlobalAndEmit func() bool

	assignGlobalAndEmit = func() bool {
		// gather global-side holes: the true globals plus all promoted
		var gh []int
		for i := 0; i < c.GlobalHoles; i++ {
			gh = append(gh, i)
		}
		for si, pr := range promoted {
			for _, lh := range pr {
				gh = append(gh, offset[si]+lh)
			}
		}
		ok := true
		partition.EachRGSExact(len(gh), c.GlobalVars, func(rgs []int) bool {
			for j, b := range rgs {
				assign[gh[j]] = b
			}
			if !emit() {
				ok = false
				return false
			}
			return true
		})
		return ok
	}

	var assignLocals func(si int) bool
	assignLocals = func(si int) bool {
		if si == len(c.ScopeHoles) {
			return assignGlobalAndEmit()
		}
		rem := partition.Complement(c.ScopeHoles[si], promoted[si])
		base := c.scopeVarBase(si)
		ok := true
		partition.EachRGS(len(rem), c.ScopeVars[si], func(rgs []int) bool {
			for j, b := range rgs {
				assign[offset[si]+rem[j]] = base + b
			}
			if !assignLocals(si + 1) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}

	var chooseProm func(si int) bool
	chooseProm = func(si int) bool {
		if si == len(c.ScopeHoles) {
			return assignLocals(0)
		}
		u := c.ScopeHoles[si]
		if u == 0 {
			promoted[si] = nil
			return chooseProm(si + 1)
		}
		ok := true
		for k := 0; k <= u-1 && ok; k++ {
			partition.EachCombination(u, k, func(comb []int) bool {
				promoted[si] = append([]int(nil), comb...)
				if !chooseProm(si + 1) {
					ok = false
					return false
				}
				return true
			})
		}
		return ok
	}

	assignScopes = chooseProm
	assignScopes(0)
	return count
}

// CanonicalProblem converts the two-level configuration into the abstract
// grouped problem solved exactly by the canonical enumerator: one group of
// global variables admissible everywhere, plus one group per scope
// admissible at that scope's holes.
func (c *TwoLevelConfig) CanonicalProblem() *partition.Problem {
	n := c.NumHoles()
	p := &partition.Problem{NumHoles: n, Allowed: make([][]int, n)}
	groups := []int{}
	if c.GlobalVars > 0 {
		groups = append(groups, c.GlobalVars)
	}
	globalGroup := -1
	if c.GlobalVars > 0 {
		globalGroup = 0
	}
	scopeGroup := make([]int, len(c.ScopeVars))
	for i, v := range c.ScopeVars {
		if v > 0 {
			scopeGroup[i] = len(groups)
			groups = append(groups, v)
		} else {
			scopeGroup[i] = -1
		}
	}
	p.GroupSizes = groups
	hi := 0
	for ; hi < c.GlobalHoles; hi++ {
		p.Allowed[hi] = []int{globalGroup}
	}
	for i, h := range c.ScopeHoles {
		for j := 0; j < h; j++ {
			var as []int
			if globalGroup >= 0 {
				as = append(as, globalGroup)
			}
			if scopeGroup[i] >= 0 {
				as = append(as, scopeGroup[i])
			}
			p.Allowed[hi] = as
			hi++
		}
	}
	return p
}
