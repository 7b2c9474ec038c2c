package fabric

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
	"spe/internal/obs"
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
	if got := drainHTTP(t, coord, srv.URL); got != want {
		t.Errorf("HTTP fabric report diverges:\n--- fabric ---\n%s--- in-process ---\n%s", got, want)
	}
}

// drainHTTP runs two HTTP workers against the coordinator served at url
// and returns the final formatted report.
func drainHTTP(t *testing.T, coord *Coordinator, url string) string {
	t.Helper()
	rep, waitErr, errs := runHTTP(coord, url)
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

// runHTTP runs two HTTP workers against the coordinator served at url
// and returns the coordinator's outcome and each worker's error.
func runHTTP(coord *Coordinator, url string) (*campaign.Report, error, []error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w := &Worker{Transport: Dial(url), ID: "http-w", Parallelism: 2, RetryBackoff: time.Millisecond}
			errs[slot] = w.Run(ctx)
		}(i)
	}
	rep, waitErr := coord.Wait(ctx)
	wg.Wait()
	return rep, waitErr, errs
}

// TestFabricOversizedBodies posts each endpoint a body one byte over its
// bound: each gets 413 with a message naming the bound, and the
// coordinator then serves an HTTP campaign whose report matches the
// in-process one. The result bound is lowered to the join and lease
// bound, which still admits this campaign's results, so the test never
// builds a body of resultBodyLimit bytes.
func TestFabricOversizedBodies(t *testing.T) {
	cfg := baseConfig()
	want := inProcessBaseline(t, cfg)

	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second})
	srv := httptest.NewServer(coord.handler(smallBodyLimit))
	defer srv.Close()
	for _, ep := range []string{"join", "lease", "result"} {
		pad := strings.Repeat("x", smallBodyLimit-len(`{"worker":""}`)+1)
		resp, err := http.Post(srv.URL+apiPrefix+ep, "application/json", strings.NewReader(`{"worker":"`+pad+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(msg), strconv.Itoa(smallBodyLimit)) {
			t.Errorf("%s: a %d-byte body got %s: %s", ep, smallBodyLimit+1, resp.Status, msg)
		}
	}
	if got := drainHTTP(t, coord, srv.URL); got != want {
		t.Errorf("HTTP fabric report after oversized bodies diverges:\n--- fabric ---\n%s--- in-process ---\n%s", got, want)
	}
}

// wrongOutput prints 800 lines that minicc's seeded vm-uchar-wrap bug
// gets wrong at -O0 (300 where the reference prints 44), so each of its
// wrong-output signatures quotes a 51 KB and a 38 KB output.
const wrongOutput = `int main() {
    unsigned char c = 200;
    int i;
    c = c + 100;
    for (i = 0; i < 800; i++)
        printf("%d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n", c, c, c, c, c, c, c, c, c, c, c, c, c, c, c, c);
    return 0;
}`

// TestFabricLargeResult sends a result carrying wrong-output signatures
// of about 90 KB each over HTTP. Under the coordinator's bound the
// campaign matches the in-process report. Under a 16 KiB bound, which the
// other file's results fit, the campaign fails on the first report of the
// refused result, with an error naming the task and its corpus file: one
// worker error, and the task is never re-leased. The workers exit on that
// failure instead of exhausting their transport retries.
func TestFabricLargeResult(t *testing.T) {
	cfg := campaign.Config{
		Corpus:             []string{corpus.Seeds()[0], wrongOutput},
		Versions:           []string{"trunk"},
		OptLevels:          []int{0},
		MaxVariantsPerFile: 8,
	}
	want := inProcessBaseline(t, cfg)
	if i := strings.Index(want, `id="70222" sig="wrong code (output`); i < 0 || strings.IndexByte(want[i:], '\n') < 8<<10 {
		t.Fatalf("want a wrong-output finding with a signature over 8 KiB, got report:\n%.2000s", want)
	}
	var metrics *Metrics
	serve := func(limit int64) (*Coordinator, *httptest.Server) {
		core, err := campaign.NewRemoteEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		metrics = NewMetrics(obs.NewRegistry())
		coord := NewCoordinator(core, Options{LeaseTimeout: 30 * time.Second, Metrics: metrics})
		return coord, httptest.NewServer(coord.handler(limit))
	}

	coord, srv := serve(resultBodyLimit)
	got := drainHTTP(t, coord, srv.URL)
	srv.Close()
	if got != want {
		t.Errorf("HTTP fabric report with large results diverges:\n--- fabric ---\n%s--- in-process ---\n%s", got, want)
	}

	coord, srv = serve(16 << 10)
	defer srv.Close()
	_, waitErr, errs := runHTTP(coord, srv.URL)
	if waitErr == nil || !strings.Contains(waitErr.Error(), "(corpus file 1): fabric: result: "+errTooLarge.Error()) {
		t.Fatalf("coordinator: got %v, want a failure naming the task, corpus file 1 and the bound", waitErr)
	}
	t.Logf("campaign failure: %v", waitErr)
	if n := metrics.workerErrors.Load(); n != 1 {
		t.Errorf("spe_fabric_worker_errors_total = %d, want 1", n)
	}
	if n := metrics.releases.Load(); n != 0 {
		t.Errorf("spe_fabric_re_leases_total = %d, want 0: the refused task was re-leased", n)
	}
	for i, err := range errs {
		if err == nil || !strings.HasPrefix(err.Error(), "fabric: campaign failed: ") {
			t.Errorf("worker %d: got %v, want the campaign failure", i, err)
		}
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
