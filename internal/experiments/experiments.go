// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: Table 1 (enumeration size
// reduction), Table 2 (test-suite characteristics), Table 3 (crash
// signatures), Table 4 (bug report overview), Figure 8 (variant-count
// distributions), Figure 9 (coverage improvements vs mutation), and
// Figure 10 (bug characteristics). See DESIGN.md for the per-experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
package experiments

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/minicc"
	"spe/internal/report"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

// Scale controls experiment sizes (number of corpus files, variants per
// file) so benchmarks and the CLI can trade time for fidelity.
type Scale struct {
	CorpusFiles       int // synthetic corpus size (default 150)
	MaxVariants       int // campaign variants per file (default 200)
	CoverageFiles     int // files in the coverage experiment (default 25)
	CoverageVars      int // SPE variants per file for coverage (default 20)
	Seed              int64
	CampaignCorpus    int // synthetic files added to the bug campaign (default 30)
	ThresholdOverride int64
	// Workers sizes the campaign engine's worker pool (0 = GOMAXPROCS);
	// any value produces identical tables, parallelism only changes speed.
	Workers int
	// Checkpoint, when non-empty, makes campaigns periodically persist
	// their state to this path for campaign.Resume.
	Checkpoint string
	// Schedule selects the campaign shard dispatch policy ("" = fifo;
	// "coverage" steers dispatch by coverage novelty). Tables are
	// identical under either policy — only wall-clock shape changes.
	Schedule string
	// TargetShardMillis enables the campaign engine's adaptive shard
	// sizing (0 = fixed shards).
	TargetShardMillis int
	// Dispatch selects the bytecode oracle's instruction dispatch engine
	// ("" = threaded, the fused and specialized handler table; "switch" =
	// the monolithic opcode switch baseline). Tables are identical under
	// either.
	Dispatch string
	// BackendDispatch selects the minicc VM's instruction dispatch engine
	// for the compiled binaries under test ("" = threaded, the fused
	// handler table; "switch" = the monolithic opcode switch baseline).
	// Tables are identical under either.
	BackendDispatch string
	// Paranoid enables the campaign engine's per-variant cross-checks
	// (campaign.Config.Paranoid: render+reparse of each instantiation,
	// the tree-walker against each bytecode verdict, a fresh lowering
	// against each patched compilation); tables are identical, campaigns
	// just pay the extra checks.
	Paranoid bool
	// BenchJSON, when non-empty, makes VariantsBench write its result
	// there as JSON (the CI artifact BENCH_variants.json).
	BenchJSON string
	// Telemetry, when non-nil, attaches live campaign telemetry (the
	// cmd/spebench -status-addr/-progress flags) to every campaign the
	// experiments run. Purely observational: tables and bench reports are
	// byte-identical with or without it.
	Telemetry *campaign.Telemetry
}

func (s Scale) withDefaults() Scale {
	if s.CorpusFiles == 0 {
		s.CorpusFiles = 150
	}
	if s.MaxVariants == 0 {
		s.MaxVariants = 200
	}
	if s.CoverageFiles == 0 {
		s.CoverageFiles = 25
	}
	if s.CoverageVars == 0 {
		s.CoverageVars = 20
	}
	if s.Seed == 0 {
		s.Seed = 20170618
	}
	if s.CampaignCorpus == 0 {
		s.CampaignCorpus = 60
	}
	return s
}

// fileCounts carries the per-file enumeration counts.
type fileCounts struct {
	naive     *big.Int
	canonical *big.Int
	paper     *big.Int
	stats     skeleton.Stats
}

func corpusCounts(progs []string) ([]fileCounts, error) {
	out := make([]fileCounts, 0, len(progs))
	for i, src := range progs {
		f, err := cc.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus[%d]: %w", i, err)
		}
		prog, err := cc.Analyze(f)
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus[%d]: %w", i, err)
		}
		sk, err := skeleton.Build(prog)
		if err != nil {
			return nil, fmt.Errorf("experiments: corpus[%d]: %w", i, err)
		}
		out = append(out, fileCounts{
			naive:     spe.Count(sk, spe.Options{Mode: spe.ModeNaive}),
			canonical: spe.Count(sk, spe.Options{Mode: spe.ModeCanonical}),
			paper:     spe.Count(sk, spe.Options{Mode: spe.ModePaper}),
			stats:     sk.ComputeStats(),
		})
	}
	return out, nil
}

// Corpus assembles the experiment population: handwritten paper-figure
// seeds plus the calibrated synthetic corpus.
func Corpus(scale Scale) []string {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CorpusFiles, Seed: scale.Seed})...)
	return progs
}

// Table1 reproduces the size-reduction table: total and average
// enumeration-set sizes for the naive and SPE approaches, over the full
// corpus and over the 10K-thresholded corpus.
func Table1(scale Scale) (string, error) {
	scale = scale.withDefaults()
	counts, err := corpusCounts(Corpus(scale))
	if err != nil {
		return "", err
	}
	threshold := big.NewInt(10_000)
	if scale.ThresholdOverride > 0 {
		threshold = big.NewInt(scale.ThresholdOverride)
	}

	sum := func(sel func(fileCounts) *big.Int, onlyBelow bool) (*big.Int, int) {
		total := new(big.Int)
		n := 0
		for _, c := range counts {
			if onlyBelow && c.canonical.Cmp(threshold) > 0 {
				continue
			}
			total.Add(total, sel(c))
			n++
		}
		return total, n
	}
	naiveAll, nAll := sum(func(c fileCounts) *big.Int { return c.naive }, false)
	ourAll, _ := sum(func(c fileCounts) *big.Int { return c.canonical }, false)
	naiveThr, nThr := sum(func(c fileCounts) *big.Int { return c.naive }, true)
	ourThr, _ := sum(func(c fileCounts) *big.Int { return c.canonical }, true)

	avg := func(total *big.Int, n int) string {
		if n == 0 {
			return "0"
		}
		return report.SciBig(new(big.Int).Quo(total, big.NewInt(int64(n))))
	}
	t := &report.Table{
		Title:  "Table 1: enumeration size reduction (naive vs SPE)",
		Header: []string{"Approach", "Total (all)", "Avg (all)", "#Files", "Total (<=10K)", "Avg (<=10K)", "#Files"},
	}
	t.AddRow("Naive", report.SciBig(naiveAll), avg(naiveAll, nAll), fmt.Sprint(nAll),
		report.SciBig(naiveThr), avg(naiveThr, nThr), fmt.Sprint(nThr))
	t.AddRow("Our", report.SciBig(ourAll), avg(ourAll, nAll), fmt.Sprint(nAll),
		report.SciBig(ourThr), avg(ourThr, nThr), fmt.Sprint(nThr))
	reduction := report.RatioOrders(naiveThr, ourThr)
	reductionAll := report.RatioOrders(naiveAll, ourAll)
	out := t.String()
	out += fmt.Sprintf("\nReduction: %d orders of magnitude on the full corpus, %d on the thresholded corpus\n",
		reductionAll, reduction)
	out += fmt.Sprintf("(paper: 94 orders full, 6 orders thresholded; retained %d/%d = %s of files)\n",
		nThr, nAll, report.Pct(float64(nThr)/float64(nAll)))
	return out, nil
}

// Table2 reproduces the test-suite characteristics table.
func Table2(scale Scale) (string, error) {
	scale = scale.withDefaults()
	counts, err := corpusCounts(Corpus(scale))
	if err != nil {
		return "", err
	}
	threshold := big.NewInt(10_000)
	row := func(name string, onlyBelow bool) []string {
		var holes, scopes, funcs, types, vars float64
		n := 0
		for _, c := range counts {
			if onlyBelow && c.canonical.Cmp(threshold) > 0 {
				continue
			}
			holes += float64(c.stats.Holes)
			scopes += float64(c.stats.Scopes)
			funcs += float64(c.stats.Funcs)
			types += float64(c.stats.Types)
			vars += c.stats.Vars
			n++
		}
		if n == 0 {
			n = 1
		}
		f := func(v float64) string { return fmt.Sprintf("%.2f", v/float64(n)) }
		return []string{name, f(holes), f(scopes), f(funcs), f(types), f(vars)}
	}
	t := &report.Table{
		Title:  "Table 2: corpus characteristics (averages per file; paper: 7.34/2.77/1.85/1.38/3.46 original)",
		Header: []string{"Corpus", "#Holes", "#Scopes", "#Funcs", "#Types", "#Vars/hole"},
	}
	t.AddRow(row("Original", false)...)
	t.AddRow(row("Enumerated (<=10K)", true)...)
	return t.String(), nil
}

// Figure8 reproduces the variant-count distribution figure: (a) the
// fraction of files whose enumeration set falls in each decade bucket,
// for naive and SPE; (b) the average eliminated fraction per bucket.
func Figure8(scale Scale) (string, error) {
	scale = scale.withDefaults()
	counts, err := corpusCounts(Corpus(scale))
	if err != nil {
		return "", err
	}
	const maxBucket = 10
	var naiveVals, ourVals []*big.Int
	for _, c := range counts {
		naiveVals = append(naiveVals, c.naive)
		ourVals = append(ourVals, c.canonical)
	}
	labels, naiveBuckets := report.BucketCounts(naiveVals, maxBucket)
	_, ourBuckets := report.BucketCounts(ourVals, maxBucket)
	n := float64(len(counts))
	t := &report.Table{
		Title:  "Figure 8(a): distribution of per-file variant counts",
		Header: []string{"Bucket", "Naive", "Our"},
	}
	for i, l := range labels {
		t.AddRow(l, report.Pct(float64(naiveBuckets[i])/n), report.Pct(float64(ourBuckets[i])/n))
	}
	out := t.String()

	// (b): average eliminated ratio 1 - our/naive per naive bucket
	elim := make([]float64, maxBucket+1)
	cnt := make([]int, maxBucket+1)
	for _, c := range counts {
		d := len(c.naive.String()) - 1
		if d > maxBucket {
			d = maxBucket
		}
		nf, _ := new(big.Float).SetInt(c.naive).Float64()
		of, _ := new(big.Float).SetInt(c.canonical).Float64()
		if nf > 0 {
			elim[d] += 1 - of/nf
			cnt[d]++
		}
	}
	h := &report.Histogram{Title: "Figure 8(b): average eliminated fraction per bucket", Unit: ""}
	for i, l := range labels {
		if cnt[i] == 0 {
			continue
		}
		h.Labels = append(h.Labels, l)
		h.Values = append(h.Values, elim[i]/float64(cnt[i]))
	}
	return out + "\n" + h.String(), nil
}

// Campaign runs the bug-hunting campaign used by Tables 3 and 4 and
// Figure 10.
func Campaign(scale Scale, versions []string) (*campaign.Report, error) {
	scale = scale.withDefaults()
	progs := corpus.Seeds()
	progs = append(progs, corpus.Generate(corpus.Config{N: scale.CampaignCorpus, Seed: scale.Seed + 1})...)
	// the campaign is budgeted per file by MaxVariants rather than by the
	// paper's 10K skip-threshold (which models their fixed compute budget;
	// our cap achieves the same bound while still sampling large files)
	return campaign.Run(campaign.Config{
		Corpus:             progs,
		Versions:           versions,
		Threshold:          -1,
		MaxVariantsPerFile: scale.MaxVariants,
		Workers:            scale.Workers,
		CheckpointPath:     scale.Checkpoint,
		Schedule:           scale.Schedule,
		TargetShardMillis:  scale.TargetShardMillis,
		Dispatch:           scale.Dispatch,
		BackendDispatch:    scale.BackendDispatch,
		Paranoid:           scale.Paranoid,
		Telemetry:          scale.Telemetry,
	})
}

// Table3 reproduces the crash-signature table from a stable-release
// campaign (the paper tests GCC-4.8.5 and Clang-3.6 with the GCC-4.8.5
// suite; we test the two oldest simulated releases).
func Table3(scale Scale) (string, error) {
	rep, err := Campaign(scale, []string{"4.8", "5.3"})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "Table 3: crash signatures found on stable releases",
		Header: []string{"Signature", "Bug", "Opt levels"},
	}
	for _, fd := range rep.Findings {
		if fd.Kind != minicc.BugCrash {
			continue
		}
		t.AddRow(fd.Signature, fd.BugID, intsStr(fd.OptLevels))
	}
	out := t.String()
	out += fmt.Sprintf("\n%d crash, %d wrong-code, %d performance findings; %d variants tested (%d UB-filtered)\n",
		rep.Stats.CrashFindings, rep.Stats.WrongFindings, rep.Stats.PerfFindings,
		rep.Stats.Variants, rep.Stats.VariantsUB)
	return out, nil
}

// Table4 reproduces the bug-overview table from a trunk campaign.
func Table4(scale Scale) (string, *campaign.Report, error) {
	rep, err := Campaign(scale, []string{"trunk"})
	if err != nil {
		return "", nil, err
	}
	var crash, wrong, perf, fixedLater int
	for _, fd := range rep.Findings {
		switch fd.Kind {
		case minicc.BugCrash:
			crash++
		case minicc.BugWrongCode:
			wrong++
		default:
			perf++
		}
		if b, ok := minicc.BugByID(fd.BugID); ok && b.FixedIn >= 0 {
			fixedLater++
		}
	}
	t := &report.Table{
		Title:  "Table 4: trunk campaign bug overview (paper: 217 reported, 119 fixed; crash >> wrong code > perf)",
		Header: []string{"Compiler", "Reported", "Crash", "Wrong code", "Performance"},
	}
	t.AddRow("minicc-trunk", fmt.Sprint(len(rep.Findings)), fmt.Sprint(crash), fmt.Sprint(wrong), fmt.Sprint(perf))
	out := t.String()
	out += fmt.Sprintf("\nExecutions: %d; clean variants: %d; UB variants filtered: %d\n",
		rep.Stats.Executions, rep.Stats.VariantsClean, rep.Stats.VariantsUB)
	return out, rep, nil
}

// Figure10 renders bug-characteristic histograms from a campaign across
// all simulated versions (priorities, optimization levels, affected
// versions, components — the paper's Figure 10a-d).
func Figure10(scale Scale) (string, error) {
	rep, err := Campaign(scale, minicc.Versions)
	if err != nil {
		return "", err
	}
	prio := map[int]int{}
	opts := map[int]int{}
	vers := map[string]int{}
	comp := map[string]int{}
	for _, fd := range rep.Findings {
		if fd.Priority > 0 {
			prio[fd.Priority]++
		}
		for _, o := range fd.OptLevels {
			opts[o]++
		}
		for _, v := range fd.Versions {
			vers[v]++
		}
		if fd.Component != "" {
			comp[fd.Component]++
		}
	}
	var sb strings.Builder
	h1 := &report.Histogram{Title: "Figure 10(a): bug priorities"}
	for p := 1; p <= 5; p++ {
		if prio[p] == 0 {
			continue
		}
		h1.Labels = append(h1.Labels, fmt.Sprintf("P%d", p))
		h1.Values = append(h1.Values, float64(prio[p]))
	}
	sb.WriteString(h1.String() + "\n")
	h2 := &report.Histogram{Title: "Figure 10(b): affected optimization levels"}
	for o := 0; o <= 3; o++ {
		h2.Labels = append(h2.Labels, fmt.Sprintf("-O%d", o))
		h2.Values = append(h2.Values, float64(opts[o]))
	}
	sb.WriteString(h2.String() + "\n")
	h3 := &report.Histogram{Title: "Figure 10(c): affected versions"}
	for _, v := range minicc.Versions {
		h3.Labels = append(h3.Labels, v)
		h3.Values = append(h3.Values, float64(vers[v]))
	}
	sb.WriteString(h3.String() + "\n")
	h4 := &report.Histogram{Title: "Figure 10(d): affected components"}
	var comps []string
	for c := range comp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		h4.Labels = append(h4.Labels, c)
		h4.Values = append(h4.Values, float64(comp[c]))
	}
	sb.WriteString(h4.String())
	return sb.String(), nil
}

// Figure9 reproduces the coverage-improvement comparison (SPE vs Orion
// statement deletion).
func Figure9(scale Scale) (string, error) {
	scale = scale.withDefaults()
	progs := Corpus(scale)
	if len(progs) > scale.CoverageFiles {
		progs = progs[:scale.CoverageFiles]
	}
	rep, err := CoverageExperiment(CoverageConfig{
		Corpus:          progs,
		VariantsPerFile: scale.CoverageVars,
		PMLevels:        []int{10, 20, 30},
		PMVariants:      scale.CoverageVars,
		Seed:            scale.Seed,
	})
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:  "Figure 9: compiler coverage improvements over the baseline corpus (percentage points)",
		Header: []string{"Strategy", "Function", "Line"},
	}
	spe9 := rep.SPE.Improvement(rep.Baseline)
	t.AddRow("SPE", fmt.Sprintf("%.2f", spe9.Function), fmt.Sprintf("%.2f", spe9.Line))
	for _, x := range []int{10, 20, 30} {
		pm := rep.PM[x].Improvement(rep.Baseline)
		t.AddRow(fmt.Sprintf("PM-%d", x), fmt.Sprintf("%.2f", pm.Function), fmt.Sprintf("%.2f", pm.Line))
	}
	out := t.String()
	out += fmt.Sprintf("\nBaseline coverage: function %s, line %s (paper baseline: 41%%/32%% for GCC)\n",
		report.Pct(rep.Baseline.Function), report.Pct(rep.Baseline.Line))
	return out, nil
}

func intsStr(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("-O%d", x)
	}
	return strings.Join(parts, " ")
}

// Example6 renders the paper's Example 6 arithmetic alongside the exact
// orbit counts (DESIGN.md §2).
func Example6() string {
	cfg := &spe.TwoLevelConfig{GlobalHoles: 3, GlobalVars: 2, ScopeHoles: []int{2}, ScopeVars: []int{2}}
	t := &report.Table{
		Title:  "Example 6 (Figure 7): 3 global holes over {a,b}, 2 scope holes over {a,b,c,d}",
		Header: []string{"Quantity", "Value"},
	}
	t.AddRow("Naive count (2^3 * 4^2)", cfg.NaiveCount().String())
	t.AddRow("Paper PartitionScope count", cfg.PaperCount().String())
	t.AddRow("Exact compact-alpha orbits", cfg.CanonicalProblem().CanonicalCount().String())
	t.AddRow("Burnside verification", cfg.CanonicalProblem().OrbitCountBurnside().String())
	return t.String()
}
