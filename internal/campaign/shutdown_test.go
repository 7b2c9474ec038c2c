package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
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
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			if tel.Status().Shards.Merged >= 3 {
				cancel()
				return
			}
		}
	}()
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
