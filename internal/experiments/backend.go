package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// BackendBenchResult is the machine-readable outcome of the backend
// benchmark (emitted as BENCH_backend.json by cmd/spebench): full-campaign
// throughput with the compiled-binary minicc VM under threaded dispatch
// over fused IR versus the monolithic opcode switch, both on the pooled,
// template-cached backends every campaign runs.
type BackendBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// full differential campaign throughput; the reuse figure is the
	// default engine (threaded dispatch), the switch figure its baseline
	CampaignVariants       int     `json:"campaign_variants"`
	ReuseVPS               float64 `json:"campaign_reuse_variants_per_sec"`
	BackendSwitchVPS       float64 `json:"campaign_backend_switch_dispatch_variants_per_sec"`
	BackendThreadedSpeedup float64 `json:"campaign_backend_threaded_dispatch_speedup"`
	// ReportsIdentical confirms both dispatch engines produced
	// byte-identical reports; ParanoidChecked additionally confirms a
	// campaign passed the per-variant paranoid cross-checks
	// (render+reparse+binding assertion and patched-IR vs fresh-lowering)
	// with the same report.
	ReportsIdentical bool `json:"reports_identical"`
	ParanoidChecked  bool `json:"paranoid_checked"`
}

// BackendBench measures full-campaign variants/sec under both minicc
// dispatch engines and cross-checks their reports; with scale.Paranoid it
// also runs a -paranoid campaign. When scale.BenchJSON is set the result
// is also written there as JSON.
func BackendBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 2})...)
	res := &BackendBenchResult{Workers: scale.Workers, Files: len(progs)}

	run := func(backendDispatch string, paranoid bool) (*campaign.Report, float64, error) {
		cfg := campaign.Config{
			Corpus:             progs,
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: scale.MaxVariants,
			Workers:            scale.Workers,
			BackendDispatch:    backendDispatch,
			Paranoid:           paranoid,
			Telemetry:          scale.Telemetry,
		}
		start := time.Now()
		rep, err := campaign.Run(cfg)
		return rep, time.Since(start).Seconds(), err
	}

	reuseRep, reuseSec, err := run("", false)
	if err != nil {
		return "", fmt.Errorf("experiments: backend: threaded campaign: %w", err)
	}
	switchRep, switchSec, err := run(campaign.BackendDispatchSwitch, false)
	if err != nil {
		return "", fmt.Errorf("experiments: backend: switch-dispatch campaign: %w", err)
	}
	res.CampaignVariants = reuseRep.Stats.Variants
	res.ReuseVPS = float64(reuseRep.Stats.Variants) / reuseSec
	res.BackendSwitchVPS = float64(switchRep.Stats.Variants) / switchSec
	res.BackendThreadedSpeedup = res.ReuseVPS / res.BackendSwitchVPS
	base := reuseRep.Format()
	res.ReportsIdentical = switchRep.Format() == base
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: backend: report diverges across dispatch engines")
	}
	if scale.Paranoid {
		paranoidRep, _, err := run("", true)
		if err != nil {
			return "", fmt.Errorf("experiments: backend: paranoid cross-check: %w", err)
		}
		if paranoidRep.Format() != base {
			return "", fmt.Errorf("experiments: backend: paranoid report diverges")
		}
		res.ParanoidChecked = true
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: backend: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: backend: %w", err)
		}
	}

	out := "Backend throughput: compiled-binary minicc VM, threaded vs switch dispatch\n"
	out += fmt.Sprintf("  corpus: %d files, %d campaign variants (workers=%d)\n",
		res.Files, res.CampaignVariants, res.Workers)
	out += fmt.Sprintf("  full campaign: threaded %8.0f variants/s | switch %8.0f variants/s | threaded speedup %.2fx\n",
		res.ReuseVPS, res.BackendSwitchVPS, res.BackendThreadedSpeedup)
	out += fmt.Sprintf("  reports byte-identical: %v, paranoid cross-check: %v\n",
		res.ReportsIdentical, res.ParanoidChecked)
	return out, nil
}
