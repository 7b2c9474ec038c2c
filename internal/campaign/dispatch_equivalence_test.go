package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// These tests pin the dispatch invariant of the bytecode oracle:
// campaign reports are byte-identical across -dispatch=threaded (the
// default handler-table engine) and -dispatch=switch (the monolithic
// switch) — across worker counts and schedules, under -paranoid, and
// through checkpoint/resume. Each cell is compared against the one-worker
// paranoid baseline, which checks every bytecode verdict against the
// tree-walking interpreter.

// TestDispatchEquivalenceMatrix is the full cross of dispatch engine x
// schedule x workers against the paranoid baseline.
func TestDispatchEquivalenceMatrix(t *testing.T) {
	want := paranoidBaseline(t)

	workerCounts := []int{1, 3}
	schedules := []string{ScheduleFIFO, ScheduleCoverage}
	if testing.Short() {
		workerCounts = []int{3} // race CI: one parallel config per cell
		schedules = []string{ScheduleFIFO}
	}
	for _, schedule := range schedules {
		for _, workers := range workerCounts {
			for _, dispatch := range []string{DispatchThreaded, DispatchSwitch} {
				cfg := flavorBaseConfig()
				cfg.Schedule = schedule
				cfg.Workers = workers
				cfg.Dispatch = dispatch
				if got := mustRun(t, cfg).Format(); got != want {
					t.Errorf("report diverges (schedule=%s workers=%d dispatch=%s):\n--- got ---\n%s--- paranoid ---\n%s",
						schedule, workers, dispatch, got, want)
				}
			}
		}
	}
}

// TestDispatchParanoid runs both dispatch engines under -paranoid, where
// every variant's bytecode verdict is re-checked against a tree run
// in-line inside the RunBatch yield.
func TestDispatchParanoid(t *testing.T) {
	want := paranoidBaseline(t)
	for _, dispatch := range []string{DispatchThreaded, DispatchSwitch} {
		cfg := flavorBaseConfig()
		cfg.Dispatch = dispatch
		cfg.Paranoid = true
		cfg.Workers = 2
		if got := mustRun(t, cfg).Format(); got != want {
			t.Errorf("paranoid report diverges (dispatch=%s):\n--- got ---\n%s--- paranoid ---\n%s",
				dispatch, got, want)
		}
	}
}

// TestDispatchResume kills a checkpointed switch-dispatch campaign
// mid-run and asserts the resumed report matches the paranoid baseline:
// the checkpoint embeds Dispatch in its config, and the shard walk
// replays deterministically from the shard boundary.
func TestDispatchResume(t *testing.T) {
	want := paranoidBaseline(t)

	path := filepath.Join(t.TempDir(), "dispatch.ckpt.json")
	cfg := flavorBaseConfig()
	cfg.Workers = 2
	cfg.CheckpointEvery = 1
	cfg.Dispatch = DispatchSwitch
	cfg.CheckpointPath = path

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			var ck checkpointFile
			if json.Unmarshal(data, &ck) == nil && ck.NextSeq >= 3 {
				cancel()
				return
			}
		}
	}()
	if _, err := RunContext(ctx, cfg); err == nil {
		t.Log("campaign completed before cancellation; resume still replays the tail")
	}
	cancel()
	<-done
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}
	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed switch-dispatch report diverges from paranoid baseline:\n--- resumed ---\n%s--- paranoid ---\n%s", got, want)
	}
}

// TestDispatchUnknownRejected pins the config validation.
func TestDispatchUnknownRejected(t *testing.T) {
	cfg := flavorBaseConfig()
	cfg.Dispatch = "quantum"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown dispatch accepted")
	}
}
