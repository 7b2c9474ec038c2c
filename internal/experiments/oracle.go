package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// OracleBenchResult is the machine-readable outcome of the oracle
// benchmark (emitted as BENCH_oracle.json by cmd/spebench): full-campaign
// throughput with the bytecode reference VM under threaded dispatch
// (fused, specialized handler table) versus the monolithic opcode switch.
type OracleBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// full differential campaign throughput; the bytecode figure is the
	// default engine (threaded dispatch), the switch figure its baseline
	CampaignVariants int     `json:"campaign_variants"`
	BytecodeVPS      float64 `json:"campaign_bytecode_variants_per_sec"`
	SwitchVPS        float64 `json:"campaign_switch_dispatch_variants_per_sec"`
	ThreadedSpeedup  float64 `json:"campaign_threaded_dispatch_speedup"`
	// ReportsIdentical confirms both dispatch engines produced
	// byte-identical reports; ParanoidChecked additionally confirms a
	// campaign passed the per-variant tree-vs-bytecode verdict
	// cross-check with the same report.
	ReportsIdentical bool `json:"reports_identical"`
	ParanoidChecked  bool `json:"paranoid_checked"`
}

// OracleBench measures full-campaign variants/sec under both bytecode
// dispatch engines and cross-checks their reports; with scale.Paranoid it
// also runs a -paranoid campaign. When scale.BenchJSON is set the result
// is also written there as JSON.
func OracleBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 3})...)
	res := &OracleBenchResult{Workers: scale.Workers, Files: len(progs)}

	run := func(dispatch string, paranoid bool) (*campaign.Report, float64, error) {
		cfg := campaign.Config{
			Corpus:             progs,
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: scale.MaxVariants,
			Workers:            scale.Workers,
			Dispatch:           dispatch,
			Paranoid:           paranoid,
			Telemetry:          scale.Telemetry,
		}
		start := time.Now()
		rep, err := campaign.Run(cfg)
		return rep, time.Since(start).Seconds(), err
	}

	bcRep, bcSec, err := run("", false)
	if err != nil {
		return "", fmt.Errorf("experiments: oracle: bytecode campaign: %w", err)
	}
	switchRep, switchSec, err := run(campaign.DispatchSwitch, false)
	if err != nil {
		return "", fmt.Errorf("experiments: oracle: switch-dispatch campaign: %w", err)
	}
	res.CampaignVariants = bcRep.Stats.Variants
	res.BytecodeVPS = float64(bcRep.Stats.Variants) / bcSec
	res.SwitchVPS = float64(switchRep.Stats.Variants) / switchSec
	res.ThreadedSpeedup = res.BytecodeVPS / res.SwitchVPS
	base := bcRep.Format()
	res.ReportsIdentical = switchRep.Format() == base
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: oracle: report diverges across dispatch engines")
	}
	if scale.Paranoid {
		paranoidRep, _, err := run("", true)
		if err != nil {
			return "", fmt.Errorf("experiments: oracle: paranoid cross-check: %w", err)
		}
		if paranoidRep.Format() != base {
			return "", fmt.Errorf("experiments: oracle: paranoid report diverges")
		}
		res.ParanoidChecked = true
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: oracle: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: oracle: %w", err)
		}
	}

	out := "Oracle throughput: bytecode reference VM, threaded vs switch dispatch\n"
	out += fmt.Sprintf("  corpus: %d files, %d campaign variants (workers=%d)\n",
		res.Files, res.CampaignVariants, res.Workers)
	out += fmt.Sprintf("  full campaign: threaded %8.0f variants/s | switch %8.0f variants/s | threaded speedup %.2fx\n",
		res.BytecodeVPS, res.SwitchVPS, res.ThreadedSpeedup)
	out += fmt.Sprintf("  reports byte-identical: %v, paranoid cross-check: %v\n",
		res.ReportsIdentical, res.ParanoidChecked)
	return out, nil
}
