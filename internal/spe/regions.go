package spe

import "math/big"

// Region cuts: a campaign plan walks the canonical indices {j*stride :
// 0 <= j < tested}. With intra-procedural granularity that walk is a
// mixed-radix counter over per-function rank digits, so contiguous spans
// of tested positions share the filling of every function more
// significant than the highest digit the walk actually moves. Cutting
// the tested range at the points where that highest-moving digit
// increments yields scheduling regions whose variants share one
// function's filling — the hole-group ranges the region scheduler
// scores independently.
//
// The derivation is pure arithmetic over the per-function counts (no
// unranking): digit i has suffix weight suffix(i) = Π counts[i+1..];
// it moves over the walked range iff suffix(i) <= maxIdx, where
// maxIdx = (tested-1)*stride is the last walked canonical index. The
// most significant such digit with more than one value is the region
// axis. The walk crosses a region boundary each time the canonical
// index passes a multiple of the axis suffix, so the cut points in
// tested space are j = ceil(p*suffix/stride) for p = 1..maxIdx/suffix,
// coalesced evenly so at most maxRegions regions remain.
//
// All arithmetic fits int64 because the campaign clamps stride to 64:
// maxIdx <= tested*64 and the axis suffix is <= maxIdx by construction.

var bigOne = big.NewInt(1)

// FuncCounts returns the per-function canonical filling counts, in
// source order — the mixed-radix digits of the space (first function
// most significant). Useful for diagnosing how RegionCuts chose its
// axis; returns nil under inter-procedural granularity.
func (s *Space) FuncCounts() []*big.Int {
	if s.t.inter {
		return nil
	}
	out := make([]*big.Int, len(s.t.units))
	for i, u := range s.t.units {
		out[i] = new(big.Int).Set(u.count)
	}
	return out
}

// RegionCuts returns the sorted tested-space start positions of the
// plan's scheduling regions; starts[0] is always 0 and a single-element
// result means the file is one opaque region (inter-procedural
// granularity, a single varying function, or a walk too short to cut).
// The result is a pure function of the skeleton's counts, stride, and
// tested — every engine (in-process, remote, worker-side planner)
// derives identical cuts.
func (s *Space) RegionCuts(stride, tested int64, maxRegions int) []int64 {
	single := []int64{0}
	if tested <= 1 || maxRegions <= 1 || stride <= 0 || s.t.inter || len(s.t.units) == 0 {
		return single
	}
	maxIdx := (tested - 1) * stride
	maxBig := big.NewInt(maxIdx)
	// pick the most significant digit that both moves over the walked
	// range (suffix <= maxIdx) and has more than one value
	axis := -1
	var axisSuffix int64 = 1
	suffix := big.NewInt(1)
	for i := len(s.t.units) - 1; i >= 0; i-- {
		c := s.t.units[i].count
		if suffix.Cmp(maxBig) > 0 {
			break
		}
		if c.Cmp(bigOne) > 0 {
			axis = i
			axisSuffix = suffix.Int64()
		}
		suffix.Mul(suffix, c)
	}
	if axis < 0 {
		return single
	}
	// d = how many times the axis digit increments over the walk; >= 1
	// because axisSuffix <= maxIdx held when the axis was chosen
	d := maxIdx / axisSuffix
	group := (d + int64(maxRegions)) / int64(maxRegions) // ceil((d+1)/maxRegions)
	starts := []int64{0}
	for p := group; p <= d; p += group {
		j := (p*axisSuffix + stride - 1) / stride
		if j >= tested {
			break
		}
		if j > starts[len(starts)-1] {
			starts = append(starts, j)
		}
	}
	return starts
}
