package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spe/internal/corpus"
	"spe/internal/minicc"
)

// cancelWhen cancels ctx once cond holds, polling every millisecond. The
// returned wait blocks until the poller has exited.
func cancelWhen(ctx context.Context, cancel context.CancelFunc, cond func() bool) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			if cond() {
				cancel()
				return
			}
		}
	}()
	return func() { <-done }
}

// checkpointMerged reports whether path holds a checkpoint of at least n
// merged shard tasks — the moment the kill/resume tests cancel at.
func checkpointMerged(path string, n int) func() bool {
	return func() bool {
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		var ck checkpointFile
		return json.Unmarshal(data, &ck) == nil && ck.NextSeq >= n
	}
}

// TestCheckpointResumeAfterKill kills a checkpointed campaign mid-run and
// asserts that resuming from the surviving checkpoint reproduces the exact
// findings of an uninterrupted run.
func TestCheckpointResumeAfterKill(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:4],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 80,
		Workers:            2,
		ShardSize:          8,
		CheckpointEvery:    1,
	}
	ref, err := Run(base) // uninterrupted, no checkpointing
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.ckpt.json")
	cfg := base
	cfg.CheckpointPath = path

	// cancel the run as soon as a few shards have been durably merged —
	// the moral equivalent of kill -9 between two checkpoint writes
	ctx, cancel := context.WithCancel(context.Background())
	wait := cancelWhen(ctx, cancel, checkpointMerged(path, 3))
	rep, err := RunContext(ctx, cfg)
	cancel()
	wait()
	if err == nil {
		// the campaign outran the watcher; the resume assertion below
		// still holds (it replays the tail after the last checkpoint)
		t.Logf("campaign completed before cancellation; findings=%d", len(rep.Findings))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Format(), ref.Format(); got != want {
		t.Errorf("resumed report diverges from uninterrupted run:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
	if !reflect.DeepEqual(resumed.Findings, ref.Findings) {
		t.Error("resumed findings differ structurally")
	}
	if !reflect.DeepEqual(resumed.Stats, ref.Stats) {
		t.Errorf("resumed stats differ: %+v vs %+v", resumed.Stats, ref.Stats)
	}
}

// TestCheckpointResumeCoverageSchedule kills a coverage-scheduled
// campaign mid-run and asserts (a) the surviving checkpoint carries the
// steering block — the coverage frontier a resume restores — and (b) the
// resumed campaign converges to the same report as an uninterrupted run.
func TestCheckpointResumeCoverageSchedule(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 80,
		Workers:            3,
		ShardSize:          4,
		Schedule:           ScheduleCoverage,
		Lookahead:          24, // keep checkpoints close behind dispatch
		CheckpointEvery:    1,
	}
	ref, err := Run(base) // uninterrupted, no checkpointing
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "coverage.ckpt.json")
	cfg := base
	cfg.CheckpointPath = path

	ctx, cancel := context.WithCancel(context.Background())
	wait := cancelWhen(ctx, cancel, checkpointMerged(path, 3))
	if rep, err := RunContext(ctx, cfg); err == nil {
		t.Logf("campaign completed before cancellation; findings=%d", len(rep.Findings))
	}
	cancel()
	wait()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Steering == nil || len(ck.Steering.Frontier) == 0 {
		t.Fatalf("checkpoint carries no coverage frontier: %+v", ck.Steering)
	}
	if ck.Steering.CostNsPerVariant <= 0 {
		t.Errorf("checkpoint carries no cost model: %+v", ck.Steering)
	}

	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Format(), ref.Format(); got != want {
		t.Errorf("resumed coverage campaign diverges from uninterrupted run:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
	if !reflect.DeepEqual(resumed.Findings, ref.Findings) {
		t.Error("resumed findings differ structurally")
	}
	// the restored frontier must seed the resumed curve: its first point
	// replays the checkpointed sites at zero additional variants
	if len(resumed.CoverageCurve) == 0 || resumed.CoverageCurve[0].Variants != 0 ||
		resumed.CoverageCurve[0].Sites < len(ck.Steering.Frontier) {
		t.Errorf("resumed curve does not restart from the restored frontier (%d sites): %+v",
			len(ck.Steering.Frontier), resumed.CoverageCurve)
	}
}

// TestCheckpointRoundTrip asserts the aggregator state survives a
// write/load cycle intact.
func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	cfg := Config{Corpus: []string{"int main() { return 0; }"}, CheckpointPath: path}.withDefaults()
	st := newAggState()
	st.nextSeq = 7
	st.stats.Files = 3
	st.stats.Variants = 41
	st.stats.NaiveTotal.SetInt64(1_000_000)
	st.stats.CanonicalTotal.SetInt64(12_345)
	st.attribution["0|trunk|2|wrong-exit"] = "69951"
	fd := &Finding{BugID: "69801", Signature: "sig", TestCase: "int main() {}", Occurrences: 4,
		OptLevels: []int{1, 2}, Versions: []string{"trunk"}}
	st.byKey[fd.key()] = fd
	steer := &steering{
		Frontier:         minicc.Snapshot{"cse.hit", "lower.entry"},
		CostNsPerVariant: 123456.5,
		RegionScores:     map[int]float64{0: 3.25, 2: 0.5},
	}
	if err := writeCheckpoint(cfg, st, steer); err != nil {
		t.Fatal(err)
	}
	gotCfg, got, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCfg, cfg) {
		t.Errorf("config mismatch: %+v vs %+v", gotCfg, cfg)
	}
	if got.nextSeq != st.nextSeq {
		t.Errorf("nextSeq = %d, want %d", got.nextSeq, st.nextSeq)
	}
	if !reflect.DeepEqual(got.stats, st.stats) {
		t.Errorf("stats mismatch: %+v vs %+v", got.stats, st.stats)
	}
	if !reflect.DeepEqual(got.byKey, st.byKey) {
		t.Errorf("findings mismatch")
	}
	if !reflect.DeepEqual(got.attribution, st.attribution) {
		t.Errorf("attribution mismatch")
	}
	if !reflect.DeepEqual(got.steer, steer) {
		t.Errorf("steering mismatch: %+v vs %+v", got.steer, steer)
	}
}

// TestResumeMissingFile asserts a helpful error for a bad path.
func TestResumeMissingFile(t *testing.T) {
	if _, err := Resume(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("resume of missing checkpoint succeeded")
	}
}

// TestCheckpointMigrateV2 resumes a region-scheduled campaign from a
// version-2 checkpoint — the format an older build would have left
// behind, with no per-region steering block. The v3 fields are advisory:
// the resumed scheduler restarts region scores from the optimistic init,
// and the final report must stay byte-identical to an uninterrupted run.
func TestCheckpointMigrateV2(t *testing.T) {
	base := Config{
		Corpus:             append([]string{corpus.RegionsSeed()}, corpus.Seeds()[:3]...),
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 120,
		Workers:            2,
		ShardSize:          4,
		Schedule:           ScheduleRegion,
		Lookahead:          24, // keep checkpoints close behind dispatch
		CheckpointEvery:    1,
	}
	ref, err := Run(base) // uninterrupted, no checkpointing
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "region.ckpt.json")
	cfg := base
	cfg.CheckpointPath = path

	ctx, cancel := context.WithCancel(context.Background())
	wait := cancelWhen(ctx, cancel, checkpointMerged(path, 3))
	if _, err := RunContext(ctx, cfg); err == nil {
		t.Log("campaign completed before cancellation; the downgraded resume below still replays the tail")
	}
	cancel()
	wait()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	// Downgrade the surviving checkpoint to exactly what a v2 writer
	// would have produced: version 2, no per-region steering keys.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["Version"] = json.RawMessage("2")
	if raw, ok := doc["Steering"]; ok && string(raw) != "null" {
		var steer map[string]json.RawMessage
		if err := json.Unmarshal(raw, &steer); err != nil {
			t.Fatal(err)
		}
		delete(steer, "RegionScoresV3")
		delete(steer, "RegionCostNs")
		delete(steer, "RegionFrontiers")
		if doc["Steering"], err = json.Marshal(steer); err != nil {
			t.Fatal(err)
		}
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.Format(), ref.Format(); got != want {
		t.Errorf("v2-resumed report diverges from uninterrupted run:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
	if !reflect.DeepEqual(resumed.Findings, ref.Findings) {
		t.Error("v2-resumed findings differ structurally")
	}
	if !reflect.DeepEqual(resumed.Stats, ref.Stats) {
		t.Errorf("v2-resumed stats differ: %+v vs %+v", resumed.Stats, ref.Stats)
	}
}

// TestCheckpointIgnoresRemovedConfigFields resumes a checkpoint whose
// embedded Config carries the fields older builds wrote: the pipeline
// flavors (the tree oracle, the render path, cold backends, and both
// unbatched walks) and the adaptive batching target. JSON decoding
// ignores keys the Config no longer has, so the resumed campaign takes
// today's walk and must format byte-identically to an uninterrupted run.
func TestCheckpointIgnoresRemovedConfigFields(t *testing.T) {
	want := paranoidBaseline(t) // the uninterrupted run of flavorBaseConfig

	path := filepath.Join(t.TempDir(), "old.ckpt.json")
	cfg := flavorBaseConfig()
	cfg.CheckpointPath = path
	eng, err := NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(eng.Config())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		spec, ok := eng.NextTask()
		if !ok {
			t.Fatalf("no task to lease at %d", i)
		}
		res, err := p.RunSpec(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Deliver(res); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.MergedTasks(); got != 3 {
		t.Fatalf("merged %d tasks before the checkpoint, want 3", got)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var embedded map[string]json.RawMessage
	if err := json.Unmarshal(doc["Config"], &embedded); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{
		"Oracle":          `"tree"`,
		"ForceRenderPath": "true",
		"NoBackendReuse":  "true",
		"NoOracleBatch":   "true",
		"NoBackendBatch":  "true",
		// the embedded ShardSize is already resolved, so task identity
		// holds without the target
		"TargetShardMillis": "10",
	} {
		embedded[k] = json.RawMessage(v)
	}
	if doc["Config"], err = json.Marshal(embedded); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed report diverges from uninterrupted run:\n--- resumed ---\n%s--- uninterrupted ---\n%s", got, want)
	}
}
