package campaign

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spe/internal/corpus"
	"spe/internal/obs"
)

// These tests pin the observability layer's inertness contract: a campaign
// report is byte-identical whether telemetry is fully live (metric
// recording, the embedded HTTP server under concurrent scraping, the
// progress ticker) or absent — across worker counts, both dispatch
// schedules, -paranoid, and checkpoint/resume. Telemetry is advisory by
// construction (the engine never reads a metric back); these tests are
// what license attaching it to production campaigns by default.

func obsBaseConfig() Config {
	return Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		ShardSize:          8,
	}
}

// liveTelemetry attaches the full observability stack to cfg: a fresh
// Telemetry, an HTTP server on an ephemeral port, a background scraper
// polling /metrics and /status for the test's duration, and a progress
// ticker. Cleanup tears all of it down.
func liveTelemetry(t *testing.T, cfg *Config) *Telemetry {
	t.Helper()
	tel := NewTelemetry()
	srv, err := obs.Serve("127.0.0.1:0", tel.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	stop := tel.StartProgressTicker(io.Discard, 5*time.Millisecond)
	t.Cleanup(stop)
	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			scrapeBody(srv.Addr, "/metrics")
			scrapeBody(srv.Addr, "/status")
			select {
			case <-stopScrape:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	t.Cleanup(func() { close(stopScrape); <-scrapeDone })
	cfg.Telemetry = tel
	return tel
}

func scrapeBody(addr, path string) string {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}

// TestTelemetryEquivalence compares reports with telemetry fully live
// versus off across worker counts and both schedules.
func TestTelemetryEquivalence(t *testing.T) {
	base := obsBaseConfig()
	base.Workers = 1
	want := mustRun(t, base).Format()

	workerCounts := []int{1, 3}
	if testing.Short() {
		workerCounts = []int{3}
	}
	for _, schedule := range []string{ScheduleFIFO, ScheduleCoverage} {
		for _, workers := range workerCounts {
			cfg := obsBaseConfig()
			cfg.Schedule = schedule
			cfg.Workers = workers
			liveTelemetry(t, &cfg)
			if got := mustRun(t, cfg).Format(); got != want {
				t.Errorf("telemetry-on report diverges (schedule=%s workers=%d):\n--- telemetry ---\n%s--- baseline ---\n%s",
					schedule, workers, got, want)
			}
		}
	}
}

// TestTelemetryParanoid runs the full cross-check matrix with telemetry
// attached (stage timing brackets the paranoid work too) and additionally
// asserts the paranoid-check counter advanced.
func TestTelemetryParanoid(t *testing.T) {
	base := obsBaseConfig()
	base.Workers = 1
	want := mustRun(t, base).Format()

	cfg := obsBaseConfig()
	cfg.Workers = 2
	cfg.Paranoid = true
	tel := liveTelemetry(t, &cfg)
	rep := mustRun(t, cfg)
	if got := rep.Format(); got != want {
		t.Errorf("paranoid telemetry report diverges:\n--- paranoid ---\n%s--- baseline ---\n%s", got, want)
	}
	// two checks per tested program, each file's original included: the
	// rendered program's re-parse and the tree-walker's verdict
	if got, want := tel.paranoidChecks.Load(), 2*int64(rep.Stats.Variants); got != want {
		t.Errorf("spe_paranoid_checks_total = %d, want %d (two per tested program)", got, want)
	}
}

// TestTelemetryCountersMatchReport cross-checks the merged counters
// against the report: the telemetry surface must agree exactly with the
// campaign's own statistics, and the key documented series must appear in
// a /metrics scrape with those values.
func TestTelemetryCountersMatchReport(t *testing.T) {
	cfg := obsBaseConfig()
	cfg.Workers = 3
	cfg.Schedule = ScheduleCoverage
	tel := NewTelemetry()
	cfg.Telemetry = tel
	start := time.Now()
	rep := mustRun(t, cfg)
	elapsed := time.Since(start).Nanoseconds()

	// The per-stage wall-clock split must cover the campaign's real work:
	// every stage (including the classification split added with the
	// batched backend walk) advanced, and the stages sum to no more than
	// the workers' combined wall time — the gauges are a partition of
	// worker time, not overlapping rebrackets of the same nanoseconds.
	stages := map[string]int64{
		"instantiate": tel.stageInstantiateNs.Load(),
		"oracle":      tel.stageOracleNs.Load(),
		"backend":     tel.stageBackendNs.Load(),
		"classify":    tel.stageClassifyNs.Load(),
	}
	var stageSum int64
	for stage, ns := range stages {
		if ns <= 0 {
			t.Errorf("spe_stage_ns_total{stage=%q} = %d, want > 0", stage, ns)
		}
		stageSum += ns
	}
	if budget := elapsed * int64(cfg.Workers); stageSum > budget {
		t.Errorf("stage ns sum %d exceeds workers' wall-time budget %d (%d workers x %dns elapsed)",
			stageSum, budget, cfg.Workers, elapsed)
	}

	if got, want := tel.variants.Load(), int64(rep.Stats.Variants); got != want {
		t.Errorf("spe_variants_total = %d, report has %d", got, want)
	}
	if got, want := tel.variantsUB.Load(), int64(rep.Stats.VariantsUB); got != want {
		t.Errorf("spe_variants_ub_total = %d, report has %d", got, want)
	}
	if got, want := tel.variantsClean.Load(), int64(rep.Stats.VariantsClean); got != want {
		t.Errorf("spe_variants_clean_total = %d, report has %d", got, want)
	}
	if got, want := tel.executions.Load(), int64(rep.Stats.Executions); got != want {
		t.Errorf("spe_executions_total = %d, report has %d", got, want)
	}
	findings := tel.findingsCrash.Load() + tel.findingsWrong.Load() + tel.findingsPerf.Load()
	if got, want := findings, int64(len(rep.Findings)); got != want {
		t.Errorf("spe_findings_total = %d, report has %d findings", got, want)
	}
	if tel.shardsDispatched.Load() != tel.shardsMerged.Load() {
		t.Errorf("dispatched %d != merged %d after completion",
			tel.shardsDispatched.Load(), tel.shardsMerged.Load())
	}

	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	for _, series := range []string{
		"spe_variants_total", "spe_shard_latency_ms", "spe_findings_total",
		"spe_stage_ns_total", "spe_space_pool_hits", "spe_backend_pool_hits",
		"spe_refvm_patch_runs_total", "spe_minicc_replays_total",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("/metrics scrape missing %s", series)
		}
	}

	st := tel.Status()
	if st.Running {
		t.Error("status still running after campaign completed")
	}
	if st.CompletedVariants != int64(rep.Stats.Variants) {
		t.Errorf("status completed_variants = %d, report has %d", st.CompletedVariants, rep.Stats.Variants)
	}
	if st.PlannedVariants != st.CompletedVariants {
		t.Errorf("completed campaign: planned %d != completed %d", st.PlannedVariants, st.CompletedVariants)
	}
	if st.ProgressPercent < 99.9 || st.ProgressPercent > 100.1 {
		t.Errorf("progress_percent = %v, want ~100", st.ProgressPercent)
	}
}

// TestTelemetryEndpointsDuringRun polls the live endpoints while a
// campaign runs and asserts they serve the documented content mid-flight.
func TestTelemetryEndpointsDuringRun(t *testing.T) {
	cfg := obsBaseConfig()
	cfg.Workers = 2
	cfg.MaxVariantsPerFile = 400
	cfg.Corpus = corpus.Seeds()
	tel := NewTelemetry()
	cfg.Telemetry = tel
	srv, err := obs.Serve("127.0.0.1:0", tel.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var metricsOK, statusOK bool
	probeDone := make(chan struct{})
	stopProbe := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			if body := scrapeBody(srv.Addr, "/metrics"); strings.Contains(body, "spe_variants_total") &&
				strings.Contains(body, "spe_shard_latency_ms") &&
				strings.Contains(body, "spe_findings_total") {
				metricsOK = true
			}
			var st Status
			if body := scrapeBody(srv.Addr, "/status"); body != "" {
				if json.Unmarshal([]byte(body), &st) == nil && st.PlannedVariants > 0 {
					statusOK = true
				}
			}
			select {
			case <-stopProbe:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	mustRun(t, cfg)
	close(stopProbe)
	<-probeDone
	if !metricsOK {
		t.Error("/metrics never served the key series during the campaign")
	}
	if !statusOK {
		t.Error("/status never served a well-formed document during the campaign")
	}
}

// TestTelemetryResume kills a checkpointed telemetry campaign mid-run and
// resumes it with a fresh Telemetry via ResumeTelemetry: the report must
// match the untelemetered uninterrupted baseline, and the resumed
// instance's completed count must cover the whole campaign (resumed
// prefix included).
func TestTelemetryResume(t *testing.T) {
	base := obsBaseConfig()
	base.Workers = 2
	base.CheckpointEvery = 1
	want := mustRun(t, base).Format()

	path := filepath.Join(t.TempDir(), "obs.ckpt.json")
	cfg := base
	cfg.CheckpointPath = path
	liveTelemetry(t, &cfg)

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

	tel := NewTelemetry()
	resumed, err := ResumeTelemetry(context.Background(), path, tel)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Format(); got != want {
		t.Errorf("resumed telemetry report diverges:\n--- resumed ---\n%s--- baseline ---\n%s", got, want)
	}
	st := tel.Status()
	if st.PlannedVariants == 0 || st.CompletedVariants != st.PlannedVariants {
		t.Errorf("resumed status: completed %d of planned %d, want full coverage",
			st.CompletedVariants, st.PlannedVariants)
	}
}

// TestTelemetryCheckpointClean pins that a telemetry pointer never leaks
// into the checkpoint file: Config.Telemetry is json:"-" and the
// checkpoint must deserialize into a config with a nil Telemetry.
func TestTelemetryCheckpointClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.ckpt.json")
	cfg := obsBaseConfig()
	cfg.Workers = 2
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1
	liveTelemetry(t, &cfg)
	mustRun(t, cfg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var raw struct {
		Config map[string]json.RawMessage
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, leaked := raw.Config["Telemetry"]; leaked {
		t.Error("checkpoint Config carries a Telemetry key; Config.Telemetry must stay json:\"-\"")
	}
	loaded, _, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Telemetry != nil {
		t.Error("loaded checkpoint carries a non-nil Telemetry")
	}
}

// TestRefvmLoopSkipsCounted checks that the oracle's loop-detector skips
// reach spe_refvm_loop_skips_total through the per-shard merge: the
// paper's goto seed cuts runs short by exact recurrence and the nested
// loop seed by counters, and the switch loop, which runs no detector,
// skips nothing.
func TestRefvmLoopSkipsCounted(t *testing.T) {
	for _, dispatch := range []string{DispatchThreaded, DispatchSwitch} {
		tel := NewTelemetry()
		cfg := Config{
			Corpus:             corpus.Seeds()[4:6],
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: 100,
			Workers:            2,
			Dispatch:           dispatch,
			Telemetry:          tel,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		cycle, counter := tel.refvmCycleSkips.Load(), tel.refvmCounterSkips.Load()
		if dispatch == DispatchSwitch {
			if cycle != 0 || counter != 0 {
				t.Errorf("switch dispatch: %d cycle and %d counter skips, want none", cycle, counter)
			}
		} else if cycle == 0 || counter == 0 {
			t.Errorf("threaded dispatch: %d cycle and %d counter skips, want both > 0", cycle, counter)
		}
	}
}

// TestMiniccLoopSkipsCounted checks that the compiled binaries' loop
// detector skips reach spe_minicc_loop_skips_total through the per-shard
// merge: release 4.8's seeded wrong-code bugs turn some variants of the
// paper's seeds 5 and 6 into endless loops at -O1 to -O3, and the switch
// loop, which runs no detector, skips nothing.
func TestMiniccLoopSkipsCounted(t *testing.T) {
	for _, dispatch := range []string{BackendDispatchThreaded, BackendDispatchSwitch} {
		tel := NewTelemetry()
		cfg := Config{
			Corpus:             corpus.Seeds()[5:7],
			Versions:           []string{"4.8"},
			Threshold:          -1,
			MaxVariantsPerFile: 100,
			Workers:            2,
			BackendDispatch:    dispatch,
			Telemetry:          tel,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		skips := tel.miniccLoopSkips.Load()
		if dispatch == BackendDispatchSwitch {
			if skips != 0 {
				t.Errorf("switch dispatch: %d loop skips, want none", skips)
			}
		} else if skips == 0 {
			t.Error("threaded dispatch: no loop skips")
		}
	}
}
