package campaign

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// These tests pin the speed-axis invariant of the compiled-binary
// backend: campaign reports are byte-identical across -backend-dispatch
// threaded (the default fused handler-table minicc VM) and switch (the
// monolithic opcode switch) — across worker counts and schedules, under
// -paranoid, and through checkpoint/resume. Each cell is compared
// against the one-worker paranoid baseline, which checks every patched
// compilation against a fresh lowering.

// TestBackendDispatchEquivalenceMatrix is the full cross of backend
// dispatch engine x schedule x workers against the paranoid baseline.
func TestBackendDispatchEquivalenceMatrix(t *testing.T) {
	want := paranoidBaseline(t)

	workerCounts := []int{1, 3}
	schedules := []string{ScheduleFIFO, ScheduleCoverage}
	if testing.Short() {
		workerCounts = []int{3} // race CI: one parallel config per cell
		schedules = []string{ScheduleFIFO}
	}
	for _, schedule := range schedules {
		for _, workers := range workerCounts {
			for _, dispatch := range []string{BackendDispatchThreaded, BackendDispatchSwitch} {
				cfg := flavorBaseConfig()
				cfg.Schedule = schedule
				cfg.Workers = workers
				cfg.BackendDispatch = dispatch
				if got := mustRun(t, cfg).Format(); got != want {
					t.Errorf("report diverges (schedule=%s workers=%d backend-dispatch=%s):\n--- got ---\n%s--- paranoid ---\n%s",
						schedule, workers, dispatch, got, want)
				}
			}
		}
	}
}

// TestBackendDispatchParanoid runs both backend dispatch engines under
// -paranoid, where every re-bound variant of the config-outer walk
// carries the render+reparse and patched-IR cross-checks.
func TestBackendDispatchParanoid(t *testing.T) {
	want := paranoidBaseline(t)
	for _, dispatch := range []string{BackendDispatchThreaded, BackendDispatchSwitch} {
		cfg := flavorBaseConfig()
		cfg.BackendDispatch = dispatch
		cfg.Paranoid = true
		cfg.Workers = 2
		if got := mustRun(t, cfg).Format(); got != want {
			t.Errorf("paranoid report diverges (backend-dispatch=%s):\n--- got ---\n%s--- paranoid ---\n%s",
				dispatch, got, want)
		}
	}
}

// TestBackendDispatchResume kills a checkpointed switch-dispatch
// campaign mid-run and asserts the resumed report matches the paranoid
// baseline: the checkpoint embeds BackendDispatch in its config, and the
// config-outer walk replays deterministically from the shard boundary.
func TestBackendDispatchResume(t *testing.T) {
	want := paranoidBaseline(t)

	path := filepath.Join(t.TempDir(), "backend-dispatch.ckpt.json")
	cfg := flavorBaseConfig()
	cfg.Workers = 2
	cfg.CheckpointEvery = 1
	cfg.BackendDispatch = BackendDispatchSwitch
	cfg.CheckpointPath = path

	ctx, cancel := context.WithCancel(context.Background())
	wait := cancelWhen(ctx, cancel, checkpointMerged(path, 3))
	if _, err := RunContext(ctx, cfg); err == nil {
		t.Log("campaign completed before cancellation; resume still replays the tail")
	}
	cancel()
	wait()
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

// TestBackendDispatchUnknownRejected pins the config validation.
func TestBackendDispatchUnknownRejected(t *testing.T) {
	cfg := flavorBaseConfig()
	cfg.BackendDispatch = "quantum"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown backend dispatch accepted")
	}
}
