package spe

import (
	"math/big"
	"sync"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/partition"
	"spe/internal/skeleton"
)

// regionsSkeleton builds corpus.RegionsSeed, a multi-function file whose
// ranking table has thousands of entries.
func regionsSkeleton(t *testing.T) *skeleton.Skeleton {
	t.Helper()
	sk, err := skeleton.Build(cc.MustAnalyze(corpus.RegionsSeed()))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestPoolMissBuildsNoTable takes Gets while the pool's first Space is
// still checked out, so every one of them misses. A miss builds only a
// cursor over the pool's table: its allocations stay a small constant,
// while building the table takes thousands.
func TestPoolMissBuildsNoTable(t *testing.T) {
	sk := regionsSkeleton(t)
	pool, err := NewPool(sk, Options{Mode: ModeCanonical})
	if err != nil {
		t.Fatal(err)
	}
	first := pool.Get()
	defer pool.Put(first)
	_, missesBefore := pool.Stats()
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() {
		if s := pool.Get(); s.Total().Sign() <= 0 {
			t.Fatal("empty space")
		}
	})
	// AllocsPerRun makes one warm-up call besides the measured runs
	if _, misses := pool.Stats(); misses-missesBefore != runs+1 {
		t.Fatalf("%d of %d Gets missed; the test needs every one to miss", misses-missesBefore, runs+1)
	}
	table := testing.AllocsPerRun(1, func() {
		if _, err := newTable(sk, Options{Mode: ModeCanonical}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a miss allocates %.0f times; building the table %.0f", allocs, table)
	if allocs > 4 {
		t.Errorf("a pool miss allocates %.0f times, want at most 4 (building the table allocates %.0f)", allocs, table)
	}
}

// TestPoolSharedTableConcurrentUnrank has several goroutines share one
// Pool and unrank interleaved index ranges at once, through FillDeltaAt as
// campaign shards do. Every fill must equal a private Space's FillAt. Run
// under -race in CI, it pins that the shared table is only read.
func TestPoolSharedTableConcurrentUnrank(t *testing.T) {
	sk := regionsSkeleton(t)
	opts := Options{Mode: ModeCanonical}
	pool, err := NewPool(sk, opts)
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewSpace(sk, opts)
	if err != nil {
		t.Fatal(err)
	}
	const workers, ranges, span = 4, 8, 16
	// range r starts at r*stride; worker w takes ranges w, w+workers, ...
	stride := new(big.Int).Quo(pool.Total(), big.NewInt(ranges))
	index := func(r, i int) *big.Int {
		return new(big.Int).Add(new(big.Int).Mul(stride, big.NewInt(int64(r))), big.NewInt(int64(i)))
	}
	want := make([][]string, ranges)
	for r := range want {
		for i := 0; i < span; i++ {
			fill, err := private.FillAt(index(r, i))
			if err != nil {
				t.Fatal(err)
			}
			want[r] = append(want[r], partition.FillKey(fill))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < ranges; r += workers {
				space := pool.Get()
				for i := 0; i < span; i++ {
					fill, _, err := space.FillDeltaAt(index(r, i))
					if err != nil {
						t.Error(err)
						return
					}
					if partition.FillKey(fill) != want[r][i] {
						t.Errorf("worker %d: index %s diverges from a private Space", w, index(r, i))
					}
				}
				pool.Put(space)
			}
		}(w)
	}
	wg.Wait()
}
