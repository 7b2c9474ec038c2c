package experiments

import (
	"testing"

	"spe/internal/corpus"
)

func TestCoverageExperimentShape(t *testing.T) {
	cfg := CoverageConfig{
		Corpus:          corpus.Seeds()[:6],
		VariantsPerFile: 10,
		PMLevels:        []int{10},
		PMVariants:      10,
		Seed:            1,
	}
	rep, err := CoverageExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Line <= 0 || rep.Baseline.Line > 1 {
		t.Errorf("baseline line coverage = %v", rep.Baseline.Line)
	}
	// SPE coverage dominates the baseline (paper Figure 9's shape)
	if rep.SPE.Line < rep.Baseline.Line {
		t.Errorf("SPE line coverage %v below baseline %v", rep.SPE.Line, rep.Baseline.Line)
	}
	if rep.SPE.Function < rep.Baseline.Function {
		t.Errorf("SPE function coverage %v below baseline %v", rep.SPE.Function, rep.Baseline.Function)
	}
	pm := rep.PM[10]
	if pm.Line < rep.Baseline.Line {
		t.Errorf("PM line coverage %v below baseline %v", pm.Line, rep.Baseline.Line)
	}
	imp := rep.SPE.Improvement(rep.Baseline)
	t.Logf("SPE improvement: func %.2f%%, line %.2f%%; PM-10: func %.2f%%, line %.2f%%",
		imp.Function, imp.Line,
		pm.Improvement(rep.Baseline).Function, pm.Improvement(rep.Baseline).Line)
}
