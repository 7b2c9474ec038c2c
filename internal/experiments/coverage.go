package experiments

import (
	"fmt"

	"spe/internal/cc"
	"spe/internal/minicc"
	"spe/internal/mutation"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// CoveragePair is one coverage measurement of the compiler under test.
type CoveragePair struct {
	Function float64
	Line     float64
}

// Improvement returns the percentage-point improvement over a baseline.
func (c CoveragePair) Improvement(base CoveragePair) CoveragePair {
	return CoveragePair{
		Function: (c.Function - base.Function) * 100,
		Line:     (c.Line - base.Line) * 100,
	}
}

// CoverageReport reproduces the measurements behind the paper's Figure 9:
// compiler coverage achieved by the original test programs (baseline), by
// SPE enumeration, and by Orion-style statement-deletion mutation (PM-X).
type CoverageReport struct {
	Baseline CoveragePair
	SPE      CoveragePair
	PM       map[int]CoveragePair // X -> coverage
}

// CoverageConfig parameterizes the experiment.
type CoverageConfig struct {
	Corpus          []string
	VariantsPerFile int   // SPE variants compiled per corpus file
	PMLevels        []int // e.g. {10, 20, 30}
	PMVariants      int   // mutation variants per file per level
	Seed            int64
}

// CoverageExperiment measures compiler coverage under the three input
// generation strategies.
func CoverageExperiment(cfg CoverageConfig) (*CoverageReport, error) {
	if cfg.VariantsPerFile == 0 {
		cfg.VariantsPerFile = 25
	}
	if len(cfg.PMLevels) == 0 {
		cfg.PMLevels = []int{10, 20, 30}
	}
	if cfg.PMVariants == 0 {
		cfg.PMVariants = cfg.VariantsPerFile
	}
	programs := make([]*cc.Program, 0, len(cfg.Corpus))
	for i, src := range cfg.Corpus {
		f, err := cc.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("coverage: corpus[%d]: %w", i, err)
		}
		prog, err := cc.Analyze(f)
		if err != nil {
			return nil, fmt.Errorf("coverage: corpus[%d]: %w", i, err)
		}
		programs = append(programs, prog)
	}

	compileAll := func(cov *minicc.Coverage, prog *cc.Program) {
		for _, opt := range minicc.OptLevels {
			c := &minicc.Compiler{Opt: opt, Coverage: cov}
			c.Run(prog, minicc.ExecConfig{MaxSteps: 200_000})
		}
	}

	rep := &CoverageReport{PM: make(map[int]CoveragePair)}

	// baseline: the original corpus only
	base := minicc.NewCoverage()
	for _, prog := range programs {
		compileAll(base, prog)
	}
	rep.Baseline = CoveragePair{Function: base.FunctionCoverage(), Line: base.LineCoverage()}

	// SPE: baseline plus enumerated variants
	speCov := minicc.NewCoverage()
	for _, prog := range programs {
		compileAll(speCov, prog)
		sk, err := skeleton.Build(prog)
		if err != nil {
			continue
		}
		n := 0
		_, err = spe.Enumerate(sk, spe.Options{Mode: spe.ModeCanonical}, func(v spe.Variant) bool {
			vf, err := cc.Parse(v.Source)
			if err != nil {
				return true
			}
			vp, err := cc.Analyze(vf)
			if err != nil {
				return true
			}
			compileAll(speCov, vp)
			n++
			return n < cfg.VariantsPerFile
		})
		if err != nil {
			return nil, err
		}
	}
	rep.SPE = CoveragePair{Function: speCov.FunctionCoverage(), Line: speCov.LineCoverage()}

	// PM-X: baseline plus statement-deletion variants
	for _, x := range cfg.PMLevels {
		pmCov := minicc.NewCoverage()
		for pi, prog := range programs {
			compileAll(pmCov, prog)
			variants := mutation.Generate(prog, mutation.Options{
				MaxDelete: x,
				Count:     cfg.PMVariants,
				Seed:      cfg.Seed + int64(pi),
			})
			for _, v := range variants {
				vf, err := cc.Parse(v.Source)
				if err != nil {
					continue
				}
				vp, err := cc.Analyze(vf)
				if err != nil {
					continue
				}
				compileAll(pmCov, vp)
			}
		}
		rep.PM[x] = CoveragePair{Function: pmCov.FunctionCoverage(), Line: pmCov.LineCoverage()}
	}
	return rep, nil
}
