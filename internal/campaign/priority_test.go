package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spe/internal/corpus"
)

// TestScheduleEquivalenceAtFourWorkers is the acceptance check for the
// coverage scheduler: fifo and coverage dispatch policies must produce
// byte-identical final reports at >= 4 workers, at the base shard size
// and at a finer grain of 4 variants. Only dispatch ORDER differs between
// the policies; the aggregator's canonical-order merge erases it.
func TestScheduleEquivalenceAtFourWorkers(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:6],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 120,
		Workers:            4,
		ShardSize:          8,
		Schedule:           ScheduleFIFO,
	}
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("fifo campaign found nothing; equivalence test is vacuous")
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"coverage", func(c *Config) { c.Schedule = ScheduleCoverage }},
		{"coverage-8-workers", func(c *Config) { c.Schedule = ScheduleCoverage; c.Workers = 8 }},
		{"coverage-small-lookahead", func(c *Config) { c.Schedule = ScheduleCoverage; c.Lookahead = 33 }},
		{"coverage-shard4", func(c *Config) { c.Schedule = ScheduleCoverage; c.ShardSize = 4 }},
		{"region", func(c *Config) { c.Schedule = ScheduleRegion }},
		{"region-8-workers", func(c *Config) { c.Schedule = ScheduleRegion; c.Workers = 8 }},
		{"region-small-lookahead", func(c *Config) { c.Schedule = ScheduleRegion; c.Lookahead = 33 }},
		{"region-shard4", func(c *Config) { c.Schedule = ScheduleRegion; c.ShardSize = 4 }},
		{"fifo-shard4", func(c *Config) { c.ShardSize = 4 }},
	} {
		cfg := base
		tc.mut(&cfg)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := rep.Format(), ref.Format(); got != want {
			t.Errorf("%s: report diverges from fifo:\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
		}
		if !reflect.DeepEqual(rep.Findings, ref.Findings) {
			t.Errorf("%s: findings differ structurally", tc.name)
		}
		if !reflect.DeepEqual(rep.Stats, ref.Stats) {
			t.Errorf("%s: stats differ: %+v vs %+v", tc.name, rep.Stats, ref.Stats)
		}
	}
}

// TestScheduleEquivalenceProperty is a randomized property test: across
// random corpus subsets, shard sizes, worker counts, and lookaheads, the
// fifo, coverage, and region schedules converge to identical final
// findings.
func TestScheduleEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	seeds := corpus.Seeds()
	rng := rand.New(rand.NewSource(20170618))
	for trial := 0; trial < 5; trial++ {
		lo := rng.Intn(len(seeds) - 1)
		hi := lo + 2 + rng.Intn(len(seeds)-lo-1)
		if hi > len(seeds) {
			hi = len(seeds)
		}
		cfg := Config{
			Corpus:             seeds[lo:hi],
			Versions:           []string{"trunk"},
			MaxVariantsPerFile: 30 + rng.Intn(90),
			Workers:            1 + rng.Intn(8),
			ShardSize:          1 + rng.Intn(16),
			Lookahead:          16 + rng.Intn(256),
		}
		name := fmt.Sprintf("trial %d (corpus[%d:%d] variants=%d workers=%d shard=%d lookahead=%d)",
			trial, lo, hi, cfg.MaxVariantsPerFile, cfg.Workers, cfg.ShardSize, cfg.Lookahead)
		fifoCfg := cfg
		fifoCfg.Schedule = ScheduleFIFO
		fifoRep, err := Run(fifoCfg)
		if err != nil {
			t.Fatalf("%s: fifo: %v", name, err)
		}
		for _, schedule := range []string{ScheduleCoverage, ScheduleRegion} {
			altCfg := cfg
			altCfg.Schedule = schedule
			altRep, err := Run(altCfg)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, schedule, err)
			}
			if got, want := altRep.Format(), fifoRep.Format(); got != want {
				t.Errorf("%s: %s report diverges:\n--- %s ---\n%s--- fifo ---\n%s", name, schedule, schedule, got, want)
			}
			if !reflect.DeepEqual(altRep.Findings, fifoRep.Findings) {
				t.Errorf("%s: %s findings differ structurally", name, schedule)
			}
		}
	}
}

// scheduleCurve runs the bundled corpus single-worker and reports how many
// variants the campaign needed to reach its full final site coverage. One
// worker does not make the curve deterministic: the worker takes its next
// task before the aggregator has observed the previous result, so the
// count can vary a little from run to run.
func scheduleCurve(tb testing.TB, schedule string) (rep *Report, variantsToFull int) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 120,
		Workers:            1,
		ShardSize:          4,
		Lookahead:          1 << 12, // cover the whole campaign
		Schedule:           schedule,
		CoverageCurve:      true, // fifo must record the curve to be compared
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rep, rep.VariantsToSites(rep.FinalSites())
}

// TestCoverageScheduleConvergesFaster asserts the point of the feedback
// scheduler: on the bundled corpus, coverage-guided dispatch reaches the
// campaign's full site coverage in fewer tested variants than fifo.
func TestCoverageScheduleConvergesFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("single-worker convergence comparison is slow and has no concurrency to race-check")
	}
	fifoRep, fifoN := scheduleCurve(t, ScheduleFIFO)
	covRep, covN := scheduleCurve(t, ScheduleCoverage)
	if fifoRep.FinalSites() != covRep.FinalSites() {
		t.Fatalf("final frontiers differ: fifo %d sites, coverage %d sites",
			fifoRep.FinalSites(), covRep.FinalSites())
	}
	if fifoN < 0 || covN < 0 {
		t.Fatalf("curve never reached the final frontier (fifo=%d coverage=%d)", fifoN, covN)
	}
	t.Logf("variants to full coverage (%d sites): fifo=%d coverage=%d", covRep.FinalSites(), fifoN, covN)
	if covN >= fifoN {
		t.Errorf("coverage schedule needed %d variants to full coverage, fifo needed %d — no speedup",
			covN, fifoN)
	}
}

// BenchmarkVariantsToFullCoverage reports, per schedule, how many variants
// the bundled corpus campaign needs to reach full site coverage — the
// metric CI watches for scheduling regressions (lower is better).
func BenchmarkVariantsToFullCoverage(b *testing.B) {
	for _, schedule := range []string{ScheduleFIFO, ScheduleCoverage, ScheduleRegion} {
		b.Run(schedule, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, n := scheduleCurve(b, schedule)
				b.ReportMetric(float64(n), "variants-to-cov")
			}
		})
	}
}

// regionCurve mirrors the schedule spebench experiment: a single-worker
// campaign over the large multi-function region corpus file, reporting
// how many variants the given schedule needed to reach full coverage.
func regionCurve(tb testing.TB, schedule string) (rep *Report, variantsToFull int) {
	rep, err := Run(Config{
		Corpus:             []string{corpus.RegionsSeed()},
		Versions:           []string{"trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 600,
		Workers:            1,
		ShardSize:          4,
		Lookahead:          1 << 12, // cover the whole campaign
		Schedule:           schedule,
		CoverageCurve:      true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return rep, rep.VariantsToSites(rep.FinalSites())
}

// TestRegionScheduleConvergesFaster asserts the point of the region
// scheduler: on a file whose novel coverage hides in the back half of the
// walk (per-file scores cannot see inside a single file), region-granular
// probing reaches full site coverage in strictly fewer variants than both
// the per-file coverage schedule and fifo order.
func TestRegionScheduleConvergesFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("single-worker convergence comparison is slow and has no concurrency to race-check")
	}
	covRep, covN := regionCurve(t, ScheduleCoverage)
	regRep, regN := regionCurve(t, ScheduleRegion)
	if covRep.FinalSites() != regRep.FinalSites() {
		t.Fatalf("final frontiers differ: coverage %d sites, region %d sites",
			covRep.FinalSites(), regRep.FinalSites())
	}
	if covN < 0 || regN < 0 {
		t.Fatalf("curve never reached the final frontier (coverage=%d region=%d)", covN, regN)
	}
	if got, want := regRep.Format(), covRep.Format(); got != want {
		t.Errorf("region report diverges from coverage:\n--- region ---\n%s--- coverage ---\n%s", got, want)
	}
	t.Logf("variants to full coverage (%d sites): coverage=%d region=%d", regRep.FinalSites(), covN, regN)
	if regN >= covN {
		t.Errorf("region schedule needed %d variants to full coverage, per-file coverage needed %d — no speedup",
			regN, covN)
	}
}

// TestUnknownScheduleRejected asserts the engine validates the policy name.
func TestUnknownScheduleRejected(t *testing.T) {
	_, err := Run(Config{Corpus: corpus.Seeds()[:1], Schedule: "best-effort"})
	if err == nil {
		t.Fatal("unknown schedule accepted")
	}
}

// TestCoverageCurveMonotone sanity-checks the curve shape: variant counts
// and frontier sizes must both be strictly increasing, and the curve must
// account for the campaign's real variant total.
func TestCoverageCurveMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("single-worker curve check is slow and has no concurrency to race-check")
	}
	rep, _ := scheduleCurve(t, ScheduleCoverage)
	if len(rep.CoverageCurve) == 0 {
		t.Fatal("no coverage curve recorded")
	}
	prev := CoveragePoint{}
	for i, p := range rep.CoverageCurve {
		if p.Variants <= prev.Variants && i > 0 {
			t.Errorf("curve[%d]: variants %d not increasing past %d", i, p.Variants, prev.Variants)
		}
		if p.Sites <= prev.Sites {
			t.Errorf("curve[%d]: sites %d not increasing past %d", i, p.Sites, prev.Sites)
		}
		prev = p
	}
	if last := rep.CoverageCurve[len(rep.CoverageCurve)-1]; last.Variants > rep.Stats.Variants {
		t.Errorf("curve claims %d variants, campaign ran %d", last.Variants, rep.Stats.Variants)
	}
}
