// Package spebench holds the top-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (see DESIGN.md §5 for the
// experiment index), plus micro-benchmarks for the enumeration engine
// itself. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment output (the actual tables/figures) is logged once per
// benchmark via b.Log; run with -v to see it, or use cmd/spebench.
package spebench_test

import (
	"math/big"
	"runtime"
	"sync"
	"testing"

	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/experiments"
	"spe/internal/minicc"
	"spe/internal/partition"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// benchScale keeps benchmark iterations affordable while preserving the
// experiments' shape.
var benchScale = experiments.Scale{
	CorpusFiles:    60,
	MaxVariants:    80,
	CoverageFiles:  12,
	CoverageVars:   12,
	CampaignCorpus: 12,
}

var logOnce sync.Map

func logExperiment(b *testing.B, name, out string) {
	if _, dup := logOnce.LoadOrStore(name, true); !dup {
		b.Log("\n" + out)
	}
}

// BenchmarkTable1 regenerates the enumeration size-reduction table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table1(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "table1", out)
	}
}

// BenchmarkTable2 regenerates the corpus characteristics table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "table2", out)
	}
}

// BenchmarkTable3 regenerates the stable-release crash-signature table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "table3", out)
	}
}

// BenchmarkTable4 regenerates the trunk bug-campaign overview.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, _, err := experiments.Table4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "table4", out)
	}
}

// BenchmarkFigure8 regenerates the variant-count distribution figure.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Figure8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "fig8", out)
	}
}

// BenchmarkFigure9 regenerates the coverage-improvement comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Figure9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "fig9", out)
	}
}

// BenchmarkFigure10 regenerates the bug-characteristics histograms.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Figure10(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "fig10", out)
	}
}

// BenchmarkGenerality regenerates the §5.3 verified-compiler (CompCert
// analogue) crash campaign.
func BenchmarkGenerality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Generality(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		logExperiment(b, "generality", out)
	}
}

// BenchmarkExample6 measures the paper's Example 6 arithmetic (PartitionScope
// vs exact orbit counting on the Figure 7 configuration).
func BenchmarkExample6(b *testing.B) {
	cfg := &spe.TwoLevelConfig{GlobalHoles: 3, GlobalVars: 2, ScopeHoles: []int{2}, ScopeVars: []int{2}}
	for i := 0; i < b.N; i++ {
		if got := cfg.PaperCount(); got.Cmp(big.NewInt(36)) != 0 {
			b.Fatalf("paper count = %s", got)
		}
		if got := cfg.CanonicalProblem().CanonicalCount(); got.Cmp(big.NewInt(40)) != 0 {
			b.Fatalf("canonical count = %s", got)
		}
	}
}

// --- campaign engine ---

// benchmarkCampaign measures a full differential-testing campaign over the
// seed corpus at a given worker count. Comparing BenchmarkCampaignWorkers1
// with BenchmarkCampaignWorkersNumCPU gives the parallel-speedup curve of
// the sharded engine (the reports are byte-identical either way).
func benchmarkCampaign(b *testing.B, workers int) {
	cfg := campaign.Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 100,
		Workers:            workers,
	}
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			b.Fatal("campaign found nothing")
		}
	}
}

func BenchmarkCampaignWorkers1(b *testing.B) { benchmarkCampaign(b, 1) }

func BenchmarkCampaignWorkersNumCPU(b *testing.B) { benchmarkCampaign(b, runtime.NumCPU()) }

// BenchmarkCampaignVariantsAST measures full-campaign throughput in
// variants/sec on the default hot path: AST-resident instantiation plus
// pooled backends (the bytecode oracle and skeleton-keyed compiler IR
// templates). BenchmarkInstantiation* below isolates the instantiation
// stage itself.
func BenchmarkCampaignVariantsAST(b *testing.B) {
	cfg := campaign.Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 100,
		Workers:            runtime.NumCPU(),
	}
	variants := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		variants += rep.Stats.Variants
	}
	b.ReportMetric(float64(variants)/b.Elapsed().Seconds(), "variants/s")
}

// benchmarkInstantiation measures the variant-preparation stage alone:
// producing an analyzed program for each enumeration index of the seed
// corpus, through the render→re-lex→re-parse→re-sema cycle or via
// AST-resident in-place instantiation. The measured loop is
// experiments.MeasureInstantiation, shared with the spebench variants
// experiment so both report the same thing.
func benchmarkInstantiation(b *testing.B, ast bool) {
	seeds := corpus.Seeds()
	variants := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := experiments.MeasureInstantiation(seeds, 100, ast)
		if err != nil {
			b.Fatal(err)
		}
		variants += n
	}
	b.ReportMetric(float64(variants)/b.Elapsed().Seconds(), "variants/s")
}

// BenchmarkInstantiationAST measures AST-resident variant instantiation.
func BenchmarkInstantiationAST(b *testing.B) { benchmarkInstantiation(b, true) }

// BenchmarkInstantiationRender measures the historical text round trip.
func BenchmarkInstantiationRender(b *testing.B) { benchmarkInstantiation(b, false) }

// TestCampaignReportDeterminism pins the engine's central invariant at the
// top level: sequential and maximally parallel campaigns render
// byte-identical reports.
func TestCampaignReportDeterminism(t *testing.T) {
	cfg := campaign.Config{
		Corpus:             corpus.Seeds()[:6],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 80,
	}
	cfg.Workers = 1
	seq, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = runtime.NumCPU() + 2
	par, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Format() != par.Format() {
		t.Errorf("parallel report diverges from sequential:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
			seq.Format(), cfg.Workers, par.Format())
	}
}

// --- engine micro-benchmarks ---

// BenchmarkStirling measures the Stirling-number computation behind the
// paper's Eq. 1/2 counting.
func BenchmarkStirling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		partition.SumStirling(60, 8)
	}
}

// BenchmarkCanonicalEnumeration measures the grouped-RGS enumerator on a
// mixed-scope instance (3 groups, 12 holes).
func BenchmarkCanonicalEnumeration(b *testing.B) {
	p := &partition.Problem{
		NumHoles:   12,
		GroupSizes: []int{3, 2, 2},
		Allowed: [][]int{
			{0}, {0}, {0}, {0},
			{0, 1}, {0, 1}, {0, 1}, {0, 1},
			{0, 2}, {0, 2}, {0, 2}, {0, 2},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.EachCanonical(func([]partition.VarRef) bool { return true })
	}
}

// BenchmarkCanonicalCountDP measures the dynamic-programming counter on the
// same instance.
func BenchmarkCanonicalCountDP(b *testing.B) {
	p := &partition.Problem{
		NumHoles:   40,
		GroupSizes: []int{4, 3, 3},
		Allowed:    make([][]int, 40),
	}
	for i := range p.Allowed {
		switch i % 3 {
		case 0:
			p.Allowed[i] = []int{0}
		case 1:
			p.Allowed[i] = []int{0, 1}
		default:
			p.Allowed[i] = []int{0, 2}
		}
	}
	for i := 0; i < b.N; i++ {
		p.CanonicalCount()
	}
}

// BenchmarkSkeletonBuild measures skeleton extraction on a paper-figure
// seed.
func BenchmarkSkeletonBuild(b *testing.B) {
	src := `
int a, b;
int main() {
    int c = 0, d = 0;
    b = c + d;
    if (a) { int e = 1; c = e + b; }
    for (int i = 0; i < 4; i++) d += i;
    return a + b + c + d;
}
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		skeleton.MustBuild(src)
	}
}

// BenchmarkCompileO2 measures the minicc -O2 pipeline on a seed program.
func BenchmarkCompileO2(b *testing.B) {
	prog := mustAnalyzeBench(`
int g1 = 5, g2 = 7;
int swap() { int t = g1; g1 = g2; g2 = t; return g1 - g2; }
int main() {
    int d = swap();
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * 2;
    return d + s;
}
`)
	c := &minicc.Compiler{Opt: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := c.Compile(prog)
		if !out.Ok() {
			b.Fatal("compile failed")
		}
	}
}

func mustAnalyzeBench(src string) *cc.Program { return cc.MustAnalyze(src) }
