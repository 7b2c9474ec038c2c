package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// ScheduleBenchResult is the machine-readable outcome of the region
// scheduler benchmark (emitted as BENCH_schedule.json by cmd/spebench).
// It runs one campaign over the large multi-function corpus file
// (corpus.RegionsSeed / examples/regions/large.c) under each dispatch
// policy and records how many tested variants each needed to reach the
// campaign's full final site coverage. On a single file the coverage
// policy degenerates to fifo (it scores whole files), so the interesting
// delta is region vs coverage: region cuts the file's walk into
// hole-group ranges and steers between them.
type ScheduleBenchResult struct {
	Files      int `json:"files"`
	Variants   int `json:"campaign_variants"`
	Regions    int `json:"regions"`
	FinalSites int `json:"final_sites"`
	// VariantsToFull per schedule: tested variants merged when the
	// coverage frontier first reached its final size (lower is better).
	FIFOVariantsToFull     int `json:"fifo_variants_to_full_coverage"`
	CoverageVariantsToFull int `json:"coverage_variants_to_full_coverage"`
	RegionVariantsToFull   int `json:"region_variants_to_full_coverage"`
	// SpeedupVsCoverage is coverage/region variants-to-full-coverage —
	// how many times fewer variants the region scheduler needed.
	SpeedupVsCoverage float64 `json:"region_speedup_vs_coverage_x"`
	// RegionVPS is the region-schedule campaign's throughput (the
	// benchgate-watched metric; the steering win itself is a ratio and
	// machine-independent).
	RegionVPS float64 `json:"region_variants_per_sec"`
	// ReportsIdentical confirms all three schedules produced byte-identical
	// final reports (dispatch order is advisory; the merge is canonical).
	ReportsIdentical bool `json:"reports_identical"`
}

// scheduleBenchBudget is the per-file variant budget of the schedule
// benchmark: large enough that the strided walk crosses every region cut
// of the corpus file, small enough to run in CI.
const scheduleBenchBudget = 600

// ScheduleBench measures variants-to-full-coverage under the fifo,
// coverage, and region dispatch policies on the large multi-function
// corpus file, pinning byte-identical reports across all three. When
// scale.BenchJSON is set the result is also written there as JSON.
func ScheduleBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	res := &ScheduleBenchResult{Files: 1}

	cfg := campaign.Config{
		Corpus:             []string{corpus.RegionsSeed()},
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: scheduleBenchBudget,
		// one worker and a whole-campaign lookahead let the policy order
		// the whole walk; the curve is still not deterministic, because
		// the worker takes its next task before the aggregator has
		// observed the previous result
		Workers:       1,
		ShardSize:     4,
		Lookahead:     1 << 12,
		CoverageCurve: true,
		Telemetry:     scale.Telemetry,
	}

	type outcome struct {
		rep  *campaign.Report
		n    int
		vps  float64
		name string
	}
	var runs []outcome
	for _, schedule := range []string{campaign.ScheduleFIFO, campaign.ScheduleCoverage, campaign.ScheduleRegion} {
		c := cfg
		c.Schedule = schedule
		start := time.Now()
		rep, err := campaign.Run(c)
		if err != nil {
			return "", fmt.Errorf("experiments: schedule: %s campaign: %w", schedule, err)
		}
		vps := float64(rep.Stats.Variants) / time.Since(start).Seconds()
		runs = append(runs, outcome{rep: rep, n: rep.VariantsToSites(rep.FinalSites()), vps: vps, name: schedule})
	}

	fifo, cov, region := runs[0], runs[1], runs[2]
	res.Variants = region.rep.Stats.Variants
	res.FinalSites = region.rep.FinalSites()
	res.FIFOVariantsToFull = fifo.n
	res.CoverageVariantsToFull = cov.n
	res.RegionVariantsToFull = region.n
	res.RegionVPS = region.vps
	if region.n > 0 {
		res.SpeedupVsCoverage = float64(cov.n) / float64(region.n)
	}
	for _, p := range region.rep.Plans {
		if !p.Skipped {
			res.Regions = p.Regions
		}
	}

	res.ReportsIdentical = fifo.rep.Format() == cov.rep.Format() && cov.rep.Format() == region.rep.Format()
	if !res.ReportsIdentical {
		return "", fmt.Errorf("experiments: schedule: reports diverge across dispatch policies")
	}

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: schedule: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: schedule: %w", err)
		}
	}

	out := "Region scheduler: variants to full coverage on the large multi-function corpus file\n"
	out += fmt.Sprintf("  corpus: examples/regions/large.c, %d variants tested, %d regions, %d final sites\n",
		res.Variants, res.Regions, res.FinalSites)
	out += fmt.Sprintf("  variants to full coverage: fifo %d | coverage %d | region %d (%.2fx fewer than coverage)\n",
		res.FIFOVariantsToFull, res.CoverageVariantsToFull, res.RegionVariantsToFull, res.SpeedupVsCoverage)
	out += fmt.Sprintf("  reports byte-identical across schedules: %v\n", res.ReportsIdentical)
	return out, nil
}
