package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
	"spe/internal/obs"
)

// ObsBenchResult is the machine-readable outcome of the telemetry-overhead
// benchmark (emitted as BENCH_obs.json by cmd/spebench). It pins the
// observability layer's two contracts: the report is byte-identical with
// telemetry fully live (metrics, status server under active scraping, SSE
// consumer, progress ticker) versus completely off, and the throughput
// cost of running it all stays within measurement noise.
type ObsBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// Rounds is how many alternating off/on campaign pairs ran; each
	// side's VPS is the best over its rounds (max is the standard
	// noise-robust estimator for throughput).
	Rounds           int     `json:"rounds"`
	CampaignVariants int     `json:"campaign_variants"`
	OffVPS           float64 `json:"campaign_telemetry_off_variants_per_sec"`
	OnVPS            float64 `json:"campaign_telemetry_on_variants_per_sec"`
	// OverheadPercent is (off-on)/off*100; negative means the telemetry
	// run happened to be faster (i.e. the difference is noise).
	OverheadPercent float64 `json:"telemetry_overhead_percent"`
	// ReportsIdentical confirms the off and on campaigns produced
	// byte-identical reports while /metrics and /status were being
	// scraped concurrently.
	ReportsIdentical bool `json:"reports_identical"`
	// MetricsServed / StatusServed confirm the live endpoints responded
	// mid-campaign with the documented content (the key series present,
	// the status document well-formed).
	MetricsServed bool `json:"metrics_served"`
	StatusServed  bool `json:"status_served"`
}

// obsBenchRounds is the number of off/on pairs ObsBench alternates
// through. Alternation (off, on, off, on, ...) rather than blocks keeps
// slow drift (thermal, page cache) from biasing one side.
const obsBenchRounds = 3

// ObsBench measures full-campaign variants/sec with telemetry off versus
// fully on — metric recording, an embedded status server being scraped
// throughout the run, and a progress ticker — and cross-checks that the
// reports are byte-identical. When scale.BenchJSON is set the result is
// also written there as JSON.
func ObsBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 4})...)
	res := &ObsBenchResult{Workers: scale.Workers, Files: len(progs), Rounds: obsBenchRounds}

	baseCfg := campaign.Config{
		Corpus:             progs,
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: scale.MaxVariants,
		Workers:            scale.Workers,
	}

	var offReport, onReport string
	for round := 0; round < obsBenchRounds; round++ {
		// telemetry off: the plain campaign
		start := time.Now()
		rep, err := campaign.Run(baseCfg)
		if err != nil {
			return "", fmt.Errorf("experiments: obs: off campaign: %w", err)
		}
		if vps := float64(rep.Stats.Variants) / time.Since(start).Seconds(); vps > res.OffVPS {
			res.OffVPS = vps
		}
		offReport = rep.Format()
		res.CampaignVariants = rep.Stats.Variants

		// telemetry on: metrics + live server + active scraper + SSE
		// consumer + progress ticker, everything the -status-addr and
		// -progress flags would attach
		rep, vps, err := obsCampaign(baseCfg, res)
		if err != nil {
			return "", err
		}
		if vps > res.OnVPS {
			res.OnVPS = vps
		}
		onReport = rep.Format()
	}
	res.OverheadPercent = (res.OffVPS - res.OnVPS) / res.OffVPS * 100
	res.ReportsIdentical = offReport == onReport
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: obs: telemetry-on report diverges from telemetry-off report")
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: obs: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: obs: %w", err)
		}
	}

	out := "Telemetry overhead: campaign with live metrics/status/SSE/ticker vs none\n"
	out += fmt.Sprintf("  corpus: %d files, %d campaign variants (workers=%d, rounds=%d)\n",
		res.Files, res.CampaignVariants, res.Workers, res.Rounds)
	out += fmt.Sprintf("  full campaign: off %8.0f variants/s | on %8.0f variants/s | overhead %+.2f%%\n",
		res.OffVPS, res.OnVPS, res.OverheadPercent)
	out += fmt.Sprintf("  reports byte-identical: %v, metrics served: %v, status served: %v\n",
		res.ReportsIdentical, res.MetricsServed, res.StatusServed)
	return out, nil
}

// obsCampaign runs one telemetry-on campaign round: a fresh Telemetry, a
// live HTTP server on an ephemeral port, a background scraper hitting
// /metrics and /status for the whole run, an /events SSE consumer, and a
// progress ticker writing to io.Discard. It verifies the scraped payloads
// and folds the endpoint checks into res. The scrape (200ms) and ticker
// (250ms) cadences are already 25-100x more aggressive than any real
// deployment (Prometheus defaults to 15s scrapes, -progress to 30s), so
// the measured overhead is a conservative bound.
func obsCampaign(cfg campaign.Config, res *ObsBenchResult) (*campaign.Report, float64, error) {
	tel := campaign.NewTelemetry()
	srv, err := obs.Serve("127.0.0.1:0", tel.Handler())
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: obs: %w", err)
	}
	defer srv.Close()
	stopTicker := tel.StartProgressTicker(io.Discard, 250*time.Millisecond)
	defer stopTicker()

	// the SSE consumer streams /events for the duration of the campaign
	_, sseCancel := newSSEConsumer(srv.Addr)
	defer sseCancel()

	scrapeDone := make(chan struct{})
	stopScrape := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			if body, ok := httpGet(srv.Addr, "/metrics"); ok &&
				strings.Contains(body, "spe_variants_total") &&
				strings.Contains(body, "spe_shard_latency_ms") &&
				strings.Contains(body, "spe_findings_total") {
				res.MetricsServed = true
			}
			if body, ok := httpGet(srv.Addr, "/status"); ok {
				var st campaign.Status
				if json.Unmarshal([]byte(body), &st) == nil && st.PlannedVariants > 0 {
					res.StatusServed = true
				}
			}
			select {
			case <-stopScrape:
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}()

	cfg.Telemetry = tel
	start := time.Now()
	rep, err := campaign.Run(cfg)
	elapsed := time.Since(start).Seconds()
	close(stopScrape)
	<-scrapeDone
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: obs: on campaign: %w", err)
	}
	return rep, float64(rep.Stats.Variants) / elapsed, nil
}

// httpGet fetches one telemetry endpoint with a short timeout.
func httpGet(addr, path string) (string, bool) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return "", false
	}
	return string(body), true
}

// newSSEConsumer opens a streaming GET of /events and drains it in the
// background until cancel runs. Errors are ignored — the consumer exists
// to exercise the streaming path under load, and the equivalence and
// endpoint assertions live elsewhere.
func newSSEConsumer(addr string) (started bool, cancel func()) {
	req, err := http.NewRequest("GET", "http://"+addr+"/events", nil)
	if err != nil {
		return false, func() {}
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return false, func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(io.Discard, resp.Body)
	}()
	return true, func() {
		resp.Body.Close()
		<-done
	}
}
