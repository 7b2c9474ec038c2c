package spe

import (
	"math/big"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/partition"
	"spe/internal/skeleton"
)

// FuzzSpaceRoundTrip builds a file's Space at both granularities and
// checks its ranking table against itself and against independent counts.
// The file byte's high bit picks an in-repo seed by the low seven bits
// (corpus.Seeds, then corpus.RegionsSeed); otherwise the file is the last
// of a generated corpus (generator seed) and has at most maxFuzzHoles
// holes. prev and idx pick two ranks:
//   - FillDeltaAt(idx) right after FillDeltaAt(prev) equals FillAt(idx);
//   - each unit's Rank(Unrank(d)) == d for idx's digits d;
//   - Total() equals Count;
//   - a unit of at most maxFuzzEnum fillings counts as many as
//     OrbitCountBurnside and EachCanonical.
func FuzzSpaceRoundTrip(f *testing.F) {
	// generated files with more holes are skipped: building their table
	// takes up to seconds (the in-repo seeds take at most 11 ms)
	const maxFuzzHoles = 28
	const maxFuzzEnum = 20_000
	f.Add(int64(20170618), uint8(0), uint64(0), uint64(1))
	f.Add(int64(20170619), uint8(2), uint64(977), uint64(41))
	f.Add(int64(1234), uint8(3), uint64(1<<40), uint64(12))
	f.Add(int64(0), uint8(0x80|0), uint64(5), uint64(63))
	f.Add(int64(0), uint8(0x80|4), uint64(3), uint64(1000))
	f.Add(int64(0), uint8(0x80|14), uint64(44), uint64(7))
	f.Add(int64(0), uint8(0x80|15), uint64(1<<62), uint64(600))
	f.Fuzz(func(t *testing.T, seed int64, file uint8, prev, idx uint64) {
		src, generated := "", file&0x80 == 0
		if generated {
			srcs := corpus.Generate(corpus.Config{N: int(file%4) + 1, Seed: seed})
			src = srcs[len(srcs)-1]
		} else {
			srcs := append(corpus.Seeds(), corpus.RegionsSeed())
			src = srcs[int(file&0x7f)%len(srcs)]
		}
		sk, err := skeleton.Build(cc.MustAnalyze(src))
		if err != nil {
			t.Fatal(err)
		}
		if generated && len(sk.Holes) > maxFuzzHoles {
			t.Skip("too many holes")
		}
		for _, gran := range []Granularity{Intra, Inter} {
			opts := Options{Mode: ModeCanonical, Granularity: gran}
			space, err := NewSpace(sk, opts)
			if err != nil {
				t.Fatal(err)
			}
			total := space.Total()
			if c := Count(sk, opts); total.Cmp(c) != 0 {
				t.Fatalf("gran %v: Total %s, Count %s", gran, total, c)
			}
			a := new(big.Int).Mod(new(big.Int).SetUint64(prev), total)
			b := new(big.Int).Mod(new(big.Int).SetUint64(idx), total)
			if _, _, err := space.FillDeltaAt(a); err != nil {
				t.Fatal(err)
			}
			delta, _, err := space.FillDeltaAt(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := space.FillAt(b)
			if err != nil {
				t.Fatal(err)
			}
			if partition.FillKey(delta) != partition.FillKey(want) {
				t.Fatalf("gran %v: FillDeltaAt(%s) after FillDeltaAt(%s) = %v, FillAt = %v", gran, b, a, delta, want)
			}
			for i, d := range space.digitsOf(b) {
				u := space.t.units[i]
				fill, err := u.ranker.Unrank(d)
				if err != nil {
					t.Fatal(err)
				}
				if r, err := u.ranker.Rank(fill); err != nil || r.Cmp(d) != 0 {
					t.Fatalf("gran %v unit %d: Rank(Unrank(%s)) = %v, %v", gran, i, d, r, err)
				}
				if u.count.Cmp(big.NewInt(maxFuzzEnum)) > 0 {
					continue
				}
				if burnside := u.Problem.OrbitCountBurnside(); u.count.Cmp(burnside) != 0 {
					t.Fatalf("gran %v unit %d: table counts %s, Burnside %s", gran, i, u.count, burnside)
				}
				if n := u.Problem.EachCanonical(func([]partition.VarRef) bool { return true }); u.count.Cmp(big.NewInt(int64(n))) != 0 {
					t.Fatalf("gran %v unit %d: table counts %s, EachCanonical yields %d", gran, i, u.count, n)
				}
			}
		}
	})
}
