package refvm

import (
	"math/big"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// FuzzRefvmDifferential picks a generated corpus (generator seed), a file
// of it, a variant rank and a step budget between 5 000 and 100 000. The
// variant runs through a Cache patched from the file's first variant, as
// in a campaign shard, on the threaded loop (with the loop detector),
// and fresh on the switch loop (without it): every Result field must
// match. The threaded Result must also match the tree-walker's verdict
// (diff). The seed entries use only the repository's generator seeds.
func FuzzRefvmDifferential(f *testing.F) {
	// files with more holes are skipped: building their enumeration
	// space takes up to seconds
	const maxFuzzHoles = 32
	f.Add(int64(20170618), uint8(0), uint64(0), uint32(95_000))
	f.Add(int64(20170619), uint8(2), uint64(41), uint32(0))
	f.Add(int64(1234), uint8(3), uint64(977), uint32(55_000))
	f.Add(int64(7), uint8(1), uint64(12), uint32(25_000))
	f.Fuzz(func(t *testing.T, seed int64, file uint8, rank uint64, steps uint32) {
		maxSteps := 5_000 + int64(steps%95_001)
		srcs := corpus.Generate(corpus.Config{N: int(file%4) + 1, Seed: seed})
		prog := cc.MustAnalyze(srcs[len(srcs)-1])
		sk, err := skeleton.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		if len(sk.Holes) > maxFuzzHoles {
			t.Skip("too many holes")
		}
		space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
		if err != nil {
			t.Fatal(err)
		}
		in, release, err := space.AcquireAt(new(big.Int))
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		ca := NewCache()
		cfg := Config{MaxSteps: maxSteps}
		ca.Run(in.Program(), in.HoleIdents(), cfg)
		idx := new(big.Int).Mod(new(big.Int).SetUint64(rank), space.Total())
		fill, _, err := space.FillDeltaAt(idx)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Instantiate(fill); err != nil {
			t.Fatal(err)
		}
		vprog := in.Program()
		got := ca.Run(vprog, in.HoleIdents(), cfg)
		ref := Run(vprog, Config{MaxSteps: maxSteps, Dispatch: DispatchSwitch})
		if g, r := resultFields(got), resultFields(ref); g != r {
			t.Fatalf("variant %v at %d steps: threaded %s\n switch %s\n--- source ---\n%s",
				idx, maxSteps, g, r, cc.PrintFile(vprog.File))
		}
		if err := diff(interp.Run(vprog, interp.Config{MaxSteps: maxSteps}), got); err != nil {
			t.Fatalf("variant %v at %d steps: tree-walker divergence: %v\n--- source ---\n%s",
				idx, maxSteps, err, cc.PrintFile(vprog.File))
		}
	})
}
