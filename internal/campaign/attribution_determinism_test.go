package campaign

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"spe/internal/corpus"
)

// TestAttributionDeterminismGeneratedCorpus pins the Hooks()-order fix: on
// a corpus where several seeded bugs can each explain the same wrong-code
// symptom, attribution must be deterministic across runs. (BugSet.Hooks()
// once iterated a map, so the winning bug of an attribution tie was
// random per process.)
func TestAttributionDeterminismGeneratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign determinism sweep")
	}
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: 10, Seed: 20170618 + 2})...)
	cfg := Config{
		Corpus:             progs,
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 60,
	}
	want := mustRun(t, cfg).Format()
	for round := 0; round < 2; round++ {
		if got := mustRun(t, cfg).Format(); got != want {
			t.Fatalf("round %d: report diverges:\n--- got ---\n%s--- want ---\n%s", round, got, want)
		}
	}
}

// regionsAttrConfig is the regions seed cut into 4-variant shards: many
// shards of one file show the same wrong-code keys, so whether a shard
// searches depends on which of its file's shards ran before it.
func regionsAttrConfig() Config {
	return Config{
		Corpus:             []string{corpus.RegionsSeed()},
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 120,
		ShardSize:          4,
		Workers:            1,
	}
}

// driveSeqs runs the planner's tasks seqs through RunSpec from the given
// number of goroutines, in slice order when there is one goroutine, and
// delivers every result into eng (a nil eng discards them, as a lost
// lease does).
func driveSeqs(t *testing.T, p *Planner, eng *RemoteEngine, seqs []int, goroutines int) {
	t.Helper()
	next := make(chan int, len(seqs))
	for _, s := range seqs {
		next <- s
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range next {
				res, err := p.RunSpec(context.Background(), specOf(p.bySeq[seq]))
				if err != nil {
					t.Errorf("task %d: %v", seq, err)
					return
				}
				if eng == nil {
					continue
				}
				if _, err := eng.Deliver(res); err != nil {
					t.Errorf("deliver %d: %v", seq, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// seqRange lists seqs [from, to), descending when desc is set.
func seqRange(from, to int, desc bool) []int {
	out := make([]int, 0, to-from)
	for s := from; s < to; s++ {
		out = append(out, s)
	}
	if desc {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// TestAttributionOnceAnyOrder drives one Planner's shards into a
// RemoteEngine in the orders that stress the per-file attribution table:
// descending seq (every shard showing a key must search, since no lower
// position is known yet), ascending, concurrently from four goroutines,
// and re-executed (every shard run once with its result lost, then again
// on the same Planner, as after expired leases). A last leg checkpoints
// halfway and resumes with a fresh engine and a fresh Planner, whose
// table knows nothing of the first half. Every report must match the
// one-worker in-process campaign byte for byte.
func TestAttributionOnceAnyOrder(t *testing.T) {
	cfg := regionsAttrConfig()
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Format()
	finalize := func(leg string, eng *RemoteEngine) {
		t.Helper()
		rep, err := eng.Finalize()
		if err != nil {
			t.Fatalf("%s: %v", leg, err)
		}
		if got := rep.Format(); got != want {
			t.Fatalf("%s: report diverges from the one-worker campaign:\n--- got ---\n%s--- want ---\n%s", leg, got, want)
		}
	}
	newPair := func(cfg Config) (*Planner, *RemoteEngine) {
		t.Helper()
		p, err := NewPlanner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewRemoteEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, eng
	}

	for _, leg := range []struct {
		name       string
		desc       bool
		goroutines int
		rerun      bool
	}{
		{"descending", true, 1, false},
		{"ascending", false, 1, false},
		{"concurrent", false, 4, false},
		{"re-executed", true, 1, true},
	} {
		p, eng := newPair(cfg)
		seqs := seqRange(0, p.TotalTasks(), leg.desc)
		if leg.rerun {
			driveSeqs(t, p, nil, seqs, leg.goroutines)
		}
		driveSeqs(t, p, eng, seqs, leg.goroutines)
		finalize(leg.name, eng)
	}

	ck := cfg
	ck.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	p, eng := newPair(ck)
	mid := p.TotalTasks() / 2
	driveSeqs(t, p, eng, seqRange(0, mid, true), 1)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeRemoteEngine(ck.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.MergedTasks(); got != mid {
		t.Fatalf("resumed at task %d, want %d", got, mid)
	}
	fresh, err := NewPlanner(resumed.Config())
	if err != nil {
		t.Fatal(err)
	}
	driveSeqs(t, fresh, resumed, seqRange(mid, fresh.TotalTasks(), true), 1)
	finalize("resume", resumed)
}

// TestAttributionSearchesOncePerKey pins the saving: one worker under
// fifo runs shards in merge order, so each wrong-code key is searched by
// its file's first variant showing it and by no other, and
// spe_attributions_total equals the number of keys the aggregator keeps.
func TestAttributionSearchesOncePerKey(t *testing.T) {
	cfg := regionsAttrConfig()
	tel := NewTelemetry()
	cfg.Telemetry = tel
	e, err := NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.runLocal(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := tel.attributions.Load(), int64(len(e.st.attribution))
	if want == 0 {
		t.Fatal("the regions seed shows no wrong-code key; the test exercises nothing")
	}
	if got != want {
		t.Fatalf("spe_attributions_total = %d, want one search per kept key (%d)", got, want)
	}
}
