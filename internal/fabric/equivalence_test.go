package fabric

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// These tests pin the fabric's determinism contract: a loopback
// coordinator/worker campaign — any worker count, any schedule, leases
// expiring and re-dispatching, the coordinator itself killed and
// resumed — formats byte-identically to the in-process engine. They mirror the *_equivalence_test.go pattern in
// internal/campaign: one baseline Report.Format(), every cell compared
// against it.

// baseConfig matches internal/campaign's flavorBaseConfig so fabric
// equivalence runs the same small-but-real campaign.
func baseConfig() campaign.Config {
	return campaign.Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		ShardSize:          8,
	}
}

// inProcessBaseline runs cfg through the plain engine.
func inProcessBaseline(t *testing.T, cfg campaign.Config) string {
	t.Helper()
	rep, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Format()
}

// runFabric drives cfg through a coordinator and workers over the given
// transport factory, returning the final formatted report. Each worker
// gets its own transport so per-worker chaos streams stay independent.
func runFabric(t *testing.T, cfg campaign.Config, workers int, opts Options, transport func(*Coordinator) Transport) string {
	t.Helper()
	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w := &Worker{
				Transport:    transport(coord),
				ID:           "w" + string(rune('0'+slot)),
				RetryBackoff: time.Millisecond,
				MaxErrors:    1000, // chaos drops count as transport errors
			}
			errs[slot] = w.Run(ctx)
		}(i)
	}
	rep, waitErr := coord.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		t.Fatalf("coordinator: %v", waitErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	return rep.Format()
}

func local(c *Coordinator) Transport { return &LocalTransport{C: c} }

// cancelWhen cancels ctx once cond holds, polling every millisecond.
func cancelWhen(ctx context.Context, cancel context.CancelFunc, cond func() bool) {
	go func() {
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
}

// checkpointMerged reports whether path holds a checkpoint of at least n
// merged shard tasks — the moment the kill/resume tests cancel at.
func checkpointMerged(path string, n int) func() bool {
	return func() bool {
		data, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		var ck struct{ NextSeq int }
		return json.Unmarshal(data, &ck) == nil && ck.NextSeq >= n
	}
}

// TestFabricEquivalenceMatrix crosses worker count x schedule over the
// loopback transport against a one-worker in-process -paranoid run, which
// checks every variant's verdicts against fresh references.
func TestFabricEquivalenceMatrix(t *testing.T) {
	ref := baseConfig()
	ref.Workers = 1
	ref.Paranoid = true
	want := inProcessBaseline(t, ref)

	workerCounts := []int{1, 2, 4}
	schedules := []string{campaign.ScheduleFIFO, campaign.ScheduleCoverage, campaign.ScheduleRegion}
	if testing.Short() {
		workerCounts = []int{2} // race CI: one parallel cell per axis
		schedules = []string{campaign.ScheduleFIFO}
	}
	for _, workers := range workerCounts {
		for _, schedule := range schedules {
			cfg := baseConfig()
			cfg.Schedule = schedule
			got := runFabric(t, cfg, workers, Options{LeaseTimeout: 30 * time.Second}, local)
			if got != want {
				t.Errorf("fabric report diverges (workers=%d schedule=%s):\n--- fabric ---\n%s--- in-process ---\n%s",
					workers, schedule, got, want)
			}
		}
	}
}

// TestFabricRegionSchedule pins the region scheduler's fabric contract
// on a corpus where regions actually matter: the large multi-function
// region corpus file cuts into 16 scheduling regions, so leased TaskSpecs
// carry distinct region IDs and the coordinator's region scoring drives
// dispatch — while the merged report stays byte-identical to the
// in-process engine at any worker count.
func TestFabricRegionSchedule(t *testing.T) {
	cfg := campaign.Config{
		Corpus:             append([]string{corpus.RegionsSeed()}, corpus.Seeds()[:2]...),
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 120,
		ShardSize:          4,
		Schedule:           campaign.ScheduleRegion,
	}
	want := inProcessBaseline(t, cfg)
	for _, workers := range []int{1, 2} {
		got := runFabric(t, cfg, workers, Options{LeaseTimeout: 30 * time.Second}, local)
		if got != want {
			t.Errorf("region fabric report diverges (workers=%d):\n--- fabric ---\n%s--- in-process ---\n%s",
				workers, got, want)
		}
	}
}

// TestFabricHTTPEquivalence runs the full protocol over a real TCP
// loopback listener — JSON encode/decode and HTTP framing included.
func TestFabricHTTPEquivalence(t *testing.T) {
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w := &Worker{Transport: Dial(srv.URL), ID: "http-w", Parallelism: 2, RetryBackoff: time.Millisecond}
			errs[slot] = w.Run(ctx)
		}(i)
	}
	rep, waitErr := coord.Wait(ctx)
	wg.Wait()
	if waitErr != nil {
		t.Fatalf("coordinator: %v", waitErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got := rep.Format(); got != want {
		t.Errorf("HTTP fabric report diverges:\n--- fabric ---\n%s--- in-process ---\n%s", got, want)
	}
}

// TestFabricCoordinatorKillAndResume kills the coordinator mid-campaign
// (cancel its context once the checkpoint shows merged progress), then
// resumes a fresh coordinator from the checkpoint and drains the rest
// with new workers. The final report must match the in-process baseline.
func TestFabricCoordinatorKillAndResume(t *testing.T) {
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	path := filepath.Join(t.TempDir(), "fabric.ckpt.json")
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1

	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhen(ctx, cancel, checkpointMerged(path, 3))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Transport: local(coord), ID: "doomed", Parallelism: 2, RetryBackoff: time.Millisecond}
		w.Run(ctx) // exits on cancellation or campaign failure; either is fine here
	}()
	if _, err := coord.Wait(ctx); err == nil {
		t.Log("campaign completed before the kill; resume still replays the tail")
	}
	cancel()
	wg.Wait()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	core2, err := campaign.ResumeRemoteEngine(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord2 := NewCoordinator(core2, Options{LeaseTimeout: 30 * time.Second})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	var wg2 sync.WaitGroup
	var workerErr error
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		w := &Worker{Transport: local(coord2), ID: "resumer", Parallelism: 2, RetryBackoff: time.Millisecond}
		workerErr = w.Run(ctx2)
	}()
	rep, err := coord2.Wait(ctx2)
	wg2.Wait()
	if err != nil {
		t.Fatalf("resumed coordinator: %v", err)
	}
	if workerErr != nil {
		t.Fatalf("resumed worker: %v", workerErr)
	}
	if got := rep.Format(); got != want {
		t.Errorf("resumed fabric report diverges:\n--- resumed ---\n%s--- in-process ---\n%s", got, want)
	}
}

// TestFabricStoppedCoordinatorMarksTelemetryDone cancels a checkpointed
// coordinator mid-campaign and asserts its shutdown leaves /status at
// running=false and persists a merged prefix that resumes to the
// in-process baseline.
func TestFabricStoppedCoordinatorMarksTelemetryDone(t *testing.T) {
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	tel := campaign.NewTelemetry()
	path := filepath.Join(t.TempDir(), "stopped.ckpt.json")
	cfg.Telemetry = tel
	cfg.CheckpointPath = path
	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhen(ctx, cancel, func() bool { return core.MergedTasks() >= 2 })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Transport: local(coord), ID: "stopped", RetryBackoff: time.Millisecond}
		w.Run(ctx) // exits on cancellation
	}()
	_, err = coord.Wait(ctx)
	cancel()
	wg.Wait()
	if err == nil {
		t.Skip("campaign completed before cancellation; nothing to regression-test")
	}
	if tel.Status().Running {
		t.Error("a canceled coordinator left its telemetry /status at running=true")
	}
	rep, err := campaign.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Format(); got != want {
		t.Errorf("resumed report diverges:\n--- resumed ---\n%s--- in-process ---\n%s", got, want)
	}
}

// TestFabricResumeInterchangeable pins checkpoint compatibility in the
// other direction: a fabric coordinator's checkpoint resumes as a plain
// in-process campaign.Resume.
func TestFabricResumeInterchangeable(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestFabricCoordinatorKillAndResume in -short CI")
	}
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	path := filepath.Join(t.TempDir(), "interop.ckpt.json")
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1

	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelWhen(ctx, cancel, checkpointMerged(path, 2))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &Worker{Transport: local(coord), ID: "interop", RetryBackoff: time.Millisecond}
		w.Run(ctx)
	}()
	coord.Wait(ctx)
	cancel()
	wg.Wait()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint survived: %v", err)
	}
	rep, err := campaign.Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Format(); got != want {
		t.Errorf("in-process resume of fabric checkpoint diverges:\n--- resumed ---\n%s--- in-process ---\n%s", got, want)
	}
}
