package experiments

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"time"

	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// VariantsBenchResult is the machine-readable outcome of the variants/sec
// benchmark (emitted as BENCH_variants.json by cmd/spebench). It reports
// two stages separately because they answer different questions:
//
//   - the instantiation stage isolates producing an analyzed variant
//     program from an enumeration index: an in-place hole patch on a
//     pooled template clone, against the render→re-lex→re-parse→re-sema
//     round trip it replaced (Space.RenderAt plus the front end);
//   - the campaign stage is the full differential pipeline (reference
//     oracle plus every compiler configuration), where the front end is
//     one cost among many.
type VariantsBenchResult struct {
	Workers int `json:"workers"`
	Files   int `json:"files"`
	// instantiation stage (variants prepared per second)
	InstVariants  int     `json:"instantiation_variants"`
	InstRenderVPS float64 `json:"instantiation_render_variants_per_sec"`
	InstASTVPS    float64 `json:"instantiation_ast_variants_per_sec"`
	InstSpeedup   float64 `json:"instantiation_speedup"`
	// full campaign stage (variants tested per second)
	CampaignVariants int     `json:"campaign_variants"`
	CampaignASTVPS   float64 `json:"campaign_ast_variants_per_sec"`
	// ReportsIdentical confirms every campaign the experiment ran produced
	// the same report; ParanoidChecked additionally confirms a full
	// campaign passed the -paranoid per-variant cross-checks with it.
	ReportsIdentical bool `json:"reports_identical"`
	ParanoidChecked  bool `json:"paranoid_checked"`
}

// MeasureInstantiation times the variant-preparation stage alone over the
// given corpus: producing an analyzed program for each of the first
// perFile enumeration indices of every file, either AST-resident
// (Space.ProgramAt: in-place hole patching on a pooled template clone) or
// through the historical render→re-lex→re-parse→re-sema round trip. It is
// single-threaded — the stage is identical per worker, and one thread
// keeps the comparison noise-free. Shared by VariantsBench and the
// top-level BenchmarkInstantiation* benchmarks so both measure the same
// loop.
func MeasureInstantiation(progs []string, perFile int64, ast bool) (variants int, seconds float64, err error) {
	sks := make([]*skeleton.Skeleton, 0, len(progs))
	for i, src := range progs {
		f, err := cc.Parse(src)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: instantiation: corpus[%d]: %w", i, err)
		}
		prog, err := cc.Analyze(f)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: instantiation: corpus[%d]: %w", i, err)
		}
		sk, err := skeleton.Build(prog)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: instantiation: corpus[%d]: %w", i, err)
		}
		sks = append(sks, sk)
	}
	start := time.Now()
	n := 0
	for _, sk := range sks {
		space, err := spe.NewSpace(sk, spe.Options{Mode: spe.ModeCanonical})
		if err != nil {
			return 0, 0, err
		}
		total := space.Total()
		idx := new(big.Int)
		for j := int64(0); j < perFile; j++ {
			idx.SetInt64(j)
			if idx.Cmp(total) >= 0 {
				break
			}
			if ast {
				_, release, err := space.ProgramAt(idx)
				if err != nil {
					return 0, 0, err
				}
				release()
			} else {
				src, err := space.RenderAt(idx)
				if err != nil {
					return 0, 0, err
				}
				f, err := cc.Parse(src)
				if err != nil {
					return 0, 0, err
				}
				if _, err := cc.Analyze(f); err != nil {
					return 0, 0, err
				}
			}
			n++
		}
	}
	return n, time.Since(start).Seconds(), nil
}

// VariantsBench measures the instantiation stage both ways and the full
// campaign's variants/sec. With scale.Paranoid it additionally runs a
// -paranoid campaign and requires its report to match. When
// scale.BenchJSON is set the result is also written there as JSON.
func VariantsBench(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 1})...)
	res := &VariantsBenchResult{Workers: scale.Workers, Files: len(progs)}

	perFile := int64(scale.MaxVariants)
	var renderSec, astSec float64
	var err error
	res.InstVariants, renderSec, err = MeasureInstantiation(progs, perFile, false)
	if err != nil {
		return "", fmt.Errorf("experiments: variants: render instantiation: %w", err)
	}
	if _, astSec, err = MeasureInstantiation(progs, perFile, true); err != nil {
		return "", fmt.Errorf("experiments: variants: ast instantiation: %w", err)
	}
	res.InstRenderVPS = float64(res.InstVariants) / renderSec
	res.InstASTVPS = float64(res.InstVariants) / astSec
	res.InstSpeedup = res.InstASTVPS / res.InstRenderVPS

	// stage 2: the full differential campaign
	run := func(paranoid bool) (*campaign.Report, float64, error) {
		cfg := campaign.Config{
			Corpus:             progs,
			Versions:           []string{"trunk"},
			Threshold:          -1,
			MaxVariantsPerFile: scale.MaxVariants,
			Workers:            scale.Workers,
			Paranoid:           paranoid,
			Telemetry:          scale.Telemetry,
		}
		start := time.Now()
		rep, err := campaign.Run(cfg)
		return rep, time.Since(start).Seconds(), err
	}
	astRep, astCampSec, err := run(false)
	if err != nil {
		return "", fmt.Errorf("experiments: variants: ast campaign: %w", err)
	}
	res.CampaignVariants = astRep.Stats.Variants
	res.CampaignASTVPS = float64(astRep.Stats.Variants) / astCampSec
	if scale.Paranoid {
		paranoidRep, _, err := run(true)
		if err != nil {
			return "", fmt.Errorf("experiments: variants: paranoid cross-check: %w", err)
		}
		if paranoidRep.Format() != astRep.Format() {
			return "", fmt.Errorf("experiments: variants: paranoid report diverges")
		}
		res.ParanoidChecked = true
	}
	// every campaign above agreed, or the experiment returned an error
	res.ReportsIdentical = true

	if scale.BenchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return "", fmt.Errorf("experiments: variants: %w", err)
		}
		if err := os.WriteFile(scale.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return "", fmt.Errorf("experiments: variants: %w", err)
		}
	}

	out := "Variant throughput: AST-resident instantiation vs render+reparse, and the full campaign\n"
	out += fmt.Sprintf("  corpus: %d files, %d instantiated variants, %d campaign variants (workers=%d)\n",
		res.Files, res.InstVariants, res.CampaignVariants, res.Workers)
	out += fmt.Sprintf("  instantiation: render %8.0f variants/s | ast %8.0f variants/s | speedup %.1fx\n",
		res.InstRenderVPS, res.InstASTVPS, res.InstSpeedup)
	out += fmt.Sprintf("  full campaign: ast %8.0f variants/s\n", res.CampaignASTVPS)
	out += fmt.Sprintf("  reports byte-identical: %v, paranoid cross-check: %v\n",
		res.ReportsIdentical, res.ParanoidChecked)
	return out, nil
}
