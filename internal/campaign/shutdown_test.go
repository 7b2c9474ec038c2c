package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regression tests for context-driven shutdown: a canceled campaign must
// persist its merged prefix to the checkpoint before returning — even
// when the periodic checkpoint cadence never fired — so a SIGINT'd run
// resumes from exactly where it stopped instead of abandoning up to
// CheckpointEvery-1 merged shards.

// TestShutdownCheckpointsMergedPrefix cancels a campaign whose
// CheckpointEvery is far beyond the plan (the periodic path can never
// write) and asserts the shutdown path left a resumable checkpoint whose
// continuation matches the uninterrupted baseline.
func TestShutdownCheckpointsMergedPrefix(t *testing.T) {
	want := paranoidBaseline(t)

	path := filepath.Join(t.TempDir(), "shutdown.ckpt.json")
	cfg := flavorBaseConfig()
	cfg.Workers = 2
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1 << 20 // periodic checkpoints never fire

	tel := NewTelemetry()
	cfg.Telemetry = tel
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhen(ctx, cancel, func() bool { return tel.Status().Shards.Merged >= 3 })
	_, err := RunContext(ctx, cfg)
	cancel()
	if err == nil {
		t.Skip("campaign completed before cancellation; nothing to regression-test")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("shutdown did not checkpoint the merged prefix: %v", statErr)
	}
	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed report diverges from uninterrupted baseline:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
}

// TestShutdownWithoutCheckpointPathStillErrors pins that cancellation
// without a checkpoint path keeps the old contract: a prompt error, no
// stray files.
func TestShutdownWithoutCheckpointPathStillErrors(t *testing.T) {
	cfg := flavorBaseConfig()
	cfg.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled campaign returned %v, want context.Canceled", err)
	}
}

// TestShardPanicContained makes one shard panic: the last file's plan
// loses its pool, so that file's first shard dereferences nil. The
// campaign must return the panic as an error naming the file and the walk
// position, checkpoint the merged prefix (every task before that shard,
// at one fifo worker), and resume from it to the uninterrupted report. A
// Planner must report the same panic from RunSpec, which is what a fabric
// worker marks reproducible.
func TestShardPanicContained(t *testing.T) {
	want := paranoidBaseline(t)

	path := filepath.Join(t.TempDir(), "panic.ckpt.json")
	cfg := flavorBaseConfig()
	cfg.Workers = 1
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1 << 20 // only the shutdown path writes
	e, err := NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var broken *task
	for _, tk := range e.all {
		if tk.newFile && tk.plan.seedIdx == len(cfg.Corpus)-1 {
			broken = tk
		}
	}
	broken.plan.pool = nil
	_, err = e.runLocal(context.Background())
	wantMsg := fmt.Sprintf("corpus[%d] walk position -1", broken.plan.seedIdx)
	if !errors.Is(err, ErrShardPanic) || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("campaign returned %v, want a shard panic naming %q", err, wantMsg)
	}
	_, st, err := loadCheckpoint(path)
	if err != nil {
		t.Fatalf("no checkpoint of the merged prefix: %v", err)
	}
	if st.nextSeq != broken.seq {
		t.Fatalf("checkpoint holds %d merged tasks, want the %d before the panicking shard", st.nextSeq, broken.seq)
	}
	resumed, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed report diverges from uninterrupted baseline:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}

	p, err := NewPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := p.bySeq[broken.seq]
	tk.plan.pool = nil
	if _, err := p.RunSpec(context.Background(), specOf(tk)); !errors.Is(err, ErrShardPanic) || !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("RunSpec returned %v, want a shard panic naming %q", err, wantMsg)
	}
}
