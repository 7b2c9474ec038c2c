package spe

import (
	"fmt"
	"math/big"

	"spe/internal/partition"
	"spe/internal/skeleton"
)

// Mode selects the enumeration algorithm.
type Mode int

// Enumeration modes.
const (
	// ModeCanonical enumerates exactly one representative per
	// compact-alpha-equivalence class (grouped restricted growth strings).
	ModeCanonical Mode = iota
	// ModeNaive enumerates the full Cartesian product (paper §3.1).
	ModeNaive
	// ModePaper counts with the paper's PartitionScope arithmetic
	// (Algorithm 1); counting only at the skeleton level.
	ModePaper
)

func (m Mode) String() string {
	switch m {
	case ModeCanonical:
		return "canonical"
	case ModeNaive:
		return "naive"
	default:
		return "paper"
	}
}

// Granularity selects the paper's §4.3 enumeration granularity.
type Granularity int

// Granularities.
const (
	// Intra enumerates each function independently and combines solutions
	// by Cartesian product (the paper's default).
	Intra Granularity = iota
	// Inter enumerates the whole program as a single problem.
	Inter
)

// Options configures counting and enumeration.
type Options struct {
	Mode        Mode
	Granularity Granularity
}

// Count returns the number of programs the configured enumeration would
// produce for the skeleton. ModeNaive reproduces the paper's naive
// baseline, which enumerates declaration holes as well as uses (Figure 6);
// the other modes quotient declaration arrangements away entirely, so only
// the naive count carries the skeleton's DeclHoleFactor.
func Count(sk *skeleton.Skeleton, opts Options) *big.Int {
	total := big.NewInt(1)
	for _, fp := range units(sk, opts.Granularity) {
		total.Mul(total, countProblem(fp.Problem, opts.Mode))
	}
	if opts.Mode == ModeNaive {
		total.Mul(total, sk.DeclHoleFactor())
	}
	return total
}

func countProblem(p *partition.Problem, mode Mode) *big.Int {
	switch mode {
	case ModeNaive:
		return p.NaiveCount()
	case ModePaper:
		return TwoLevelFromProblem(p).PaperCount()
	default:
		return p.CanonicalCount()
	}
}

// units splits the skeleton into the independent problems whose
// enumerations combine by Cartesian product, first one outermost: one per
// function under Intra, and under Inter a single problem over the whole
// skeleton, whose hole and group maps are the identity.
func units(sk *skeleton.Skeleton, gran Granularity) []*skeleton.FuncProblem {
	if gran != Inter {
		return sk.FuncProblems()
	}
	whole := &skeleton.FuncProblem{Problem: sk.Problem()}
	for i := 0; i < whole.Problem.NumHoles; i++ {
		whole.HoleIdx = append(whole.HoleIdx, i)
	}
	for g := range whole.Problem.GroupSizes {
		whole.GroupIdx = append(whole.GroupIdx, g)
	}
	return []*skeleton.FuncProblem{whole}
}

// scatter writes a unit's filling into the whole-skeleton filling.
func scatter(whole []partition.VarRef, fp *skeleton.FuncProblem, fill []partition.VarRef) {
	for j, vr := range fill {
		whole[fp.HoleIdx[j]] = partition.VarRef{Group: fp.GroupIdx[vr.Group], Index: vr.Index}
	}
}

// Variant is one enumerated program.
type Variant struct {
	// Index is the 0-based position in enumeration order.
	Index int
	// Source is the rendered C program.
	Source string
	// Fill is the whole-skeleton filling that produced it.
	Fill []partition.VarRef
}

// Enumerate renders every program of the configured enumeration, calling
// yield for each; enumeration stops early when yield returns false.
// ModePaper is count-only and returns an error. Returns the number of
// variants yielded.
func Enumerate(sk *skeleton.Skeleton, opts Options, yield func(v Variant) bool) (int, error) {
	return EnumerateFills(sk, opts, func(idx int, fill []partition.VarRef) bool {
		return yield(Variant{
			Index:  idx,
			Source: sk.Render(fill),
			Fill:   append([]partition.VarRef(nil), fill...),
		})
	})
}

// EnumerateFills is Enumerate without rendering: yield receives the raw
// filling, letting callers sample sparsely (rendering only what they test)
// over very large enumeration sets. Returns the number of fillings yielded.
func EnumerateFills(sk *skeleton.Skeleton, opts Options, yield func(idx int, fill []partition.VarRef) bool) (int, error) {
	if opts.Mode == ModePaper {
		return 0, fmt.Errorf("spe: ModePaper supports counting only; use TwoLevelConfig.EachPaper for abstract enumeration")
	}
	n := 0
	emit := func(fill []partition.VarRef) bool {
		ok := yield(n, fill)
		n++
		return ok
	}
	us := units(sk, opts.Granularity)
	whole := sk.OriginalFill()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(us) {
			return emit(whole)
		}
		each := us[i].Problem.EachCanonical
		if opts.Mode == ModeNaive {
			each = us[i].Problem.EachNaive
		}
		ok := true
		each(func(fill []partition.VarRef) bool {
			scatter(whole, us[i], fill)
			if !rec(i + 1) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	rec(0)
	return n, nil
}

// TwoLevelFromProblem abstracts a grouped problem into the paper's
// two-level (global + flat scopes) model:
//
//   - groups admissible at every hole form the global variable pool;
//   - the remaining groups are clustered into scopes (groups sharing a hole
//     belong to the same scope), matching the paper's assumption that each
//     hole sees the globals plus at most one local scope;
//   - a scope's holes are the holes admitting any of its groups.
//
// The abstraction drops per-type constraints, exactly as the paper's
// formalization does (§4.2.1 treats all variables of a scope as one set).
func TwoLevelFromProblem(p *partition.Problem) *TwoLevelConfig {
	numHoles := p.NumHoles
	isGlobal := make([]bool, len(p.GroupSizes))
	admitCount := make([]int, len(p.GroupSizes))
	for _, as := range p.Allowed {
		for _, g := range as {
			admitCount[g]++
		}
	}
	for g := range p.GroupSizes {
		isGlobal[g] = admitCount[g] == numHoles && numHoles > 0
	}

	// union-find over non-global groups connected through shared holes
	parent := make([]int, len(p.GroupSizes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for _, as := range p.Allowed {
		var prev = -1
		for _, g := range as {
			if isGlobal[g] {
				continue
			}
			if prev >= 0 {
				union(prev, g)
			}
			prev = g
		}
	}

	cfg := &TwoLevelConfig{}
	for g, sz := range p.GroupSizes {
		if isGlobal[g] {
			cfg.GlobalVars += sz
		}
	}
	scopeOf := make(map[int]int)
	for g, sz := range p.GroupSizes {
		if isGlobal[g] {
			continue
		}
		root := find(g)
		si, ok := scopeOf[root]
		if !ok {
			si = len(cfg.ScopeVars)
			scopeOf[root] = si
			cfg.ScopeVars = append(cfg.ScopeVars, 0)
			cfg.ScopeHoles = append(cfg.ScopeHoles, 0)
		}
		cfg.ScopeVars[si] += sz
	}
	for _, as := range p.Allowed {
		scope := -1
		for _, g := range as {
			if !isGlobal[g] {
				scope = scopeOf[find(g)]
				break
			}
		}
		if scope >= 0 {
			cfg.ScopeHoles[scope]++
		} else {
			cfg.GlobalHoles++
		}
	}
	return cfg
}
