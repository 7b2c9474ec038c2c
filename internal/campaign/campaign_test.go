package campaign

import (
	"context"
	"reflect"
	"testing"

	"spe/internal/corpus"
	"spe/internal/minicc"
)

// TestReportDeterministicAcrossWorkerCounts asserts the engine's core
// guarantee: the Report is byte-identical no matter how the variant space
// is sharded or how many workers race over it.
func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 120,
	}
	ref, err := Run(withWorkers(base, 1, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Findings) == 0 {
		t.Fatal("reference campaign found nothing; determinism test is vacuous")
	}
	for _, tc := range []struct{ workers, shard int }{
		{4, 32},
		{3, 7},       // shard boundaries must not leak into the report
		{8, 1},       // one variant per task
		{2, 1 << 20}, // one task per file
	} {
		rep, err := Run(withWorkers(base, tc.workers, tc.shard))
		if err != nil {
			t.Fatalf("workers=%d shard=%d: %v", tc.workers, tc.shard, err)
		}
		if got, want := rep.Format(), ref.Format(); got != want {
			t.Errorf("workers=%d shard=%d: report diverges from workers=1:\n--- got ---\n%s--- want ---\n%s",
				tc.workers, tc.shard, got, want)
		}
		if !reflect.DeepEqual(rep.Findings, ref.Findings) {
			t.Errorf("workers=%d shard=%d: findings differ structurally", tc.workers, tc.shard)
		}
		if !reflect.DeepEqual(rep.Stats, ref.Stats) {
			t.Errorf("workers=%d shard=%d: stats differ: %+v vs %+v", tc.workers, tc.shard, rep.Stats, ref.Stats)
		}
	}
}

func withWorkers(cfg Config, workers, shard int) Config {
	cfg.Workers = workers
	cfg.ShardSize = shard
	return cfg
}

// TestCampaignFindsSeededBugsParallel repeats the seeded-bug expectations
// of TestCampaignFindsSeededBugs through a parallel run.
func TestCampaignFindsSeededBugsParallel(t *testing.T) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 400,
		Workers:            4,
	})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Finding{}
	for _, fd := range rep.Findings {
		byID[fd.BugID] = fd
	}
	if _, ok := byID["69801"]; !ok {
		t.Error("bug 69801 (fold-ternary) not found")
	}
	if _, ok := byID["69951"]; !ok {
		t.Error("bug 69951 (alias store forwarding) not found")
	}
	if rep.Stats.CrashFindings == 0 || rep.Stats.WrongFindings == 0 {
		t.Errorf("missing finding kinds: %+v", rep.Stats)
	}
	if rep.Stats.CanonicalTotal.Cmp(rep.Stats.NaiveTotal) >= 0 {
		t.Errorf("canonical total %s not below naive total %s",
			rep.Stats.CanonicalTotal, rep.Stats.NaiveTotal)
	}
}

// TestCorpusErrorPropagates asserts a malformed corpus file aborts the
// campaign with a descriptive error under any worker count.
func TestCorpusErrorPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run(Config{
			Corpus:  []string{corpus.Seeds()[0], "int main( {"},
			Workers: workers,
		})
		if err == nil {
			t.Fatalf("workers=%d: campaign over malformed corpus succeeded", workers)
		}
	}
}

// TestCancellation asserts a canceled context stops the engine promptly
// and surfaces the cancellation.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Config{Corpus: corpus.Seeds()[:2], Workers: 2})
	if err == nil {
		t.Fatal("canceled campaign returned no error")
	}
}

// TestFindingKinds sanity-checks kind counting in finalize.
func TestFindingKinds(t *testing.T) {
	rep, err := Run(Config{
		Corpus:             corpus.Seeds()[:3],
		MaxVariantsPerFile: 60,
		Workers:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	crash, wrong, perf := 0, 0, 0
	for _, fd := range rep.Findings {
		switch fd.Kind {
		case minicc.BugCrash:
			crash++
		case minicc.BugWrongCode:
			wrong++
		default:
			perf++
		}
	}
	if crash != rep.Stats.CrashFindings || wrong != rep.Stats.WrongFindings || perf != rep.Stats.PerfFindings {
		t.Errorf("kind counts (%d,%d,%d) disagree with stats %+v", crash, wrong, perf, rep.Stats)
	}
}

func TestCampaignFindsSeededBugs(t *testing.T) {
	// the handwritten seeds model exactly the bug families of the paper's
	// figures; a trunk campaign over them must find several seeded bugs
	rep, err := Run(Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("campaign found no bugs")
	}
	byID := map[string]*Finding{}
	for _, fd := range rep.Findings {
		byID[fd.BugID] = fd
		t.Logf("found: id=%s kind=%v sig=%q opts=%v occurrences=%d",
			fd.BugID, fd.Kind, fd.Signature, fd.OptLevels, fd.Occurrences)
	}
	// Figure 3's family must expose the fold-ternary crash (bug 69801)
	if _, ok := byID["69801"]; !ok {
		t.Error("bug 69801 (fold-ternary) not found from Figure 3 seed")
	}
	// Figure 2's family must expose the alias wrong-code bug (69951)
	if _, ok := byID["69951"]; !ok {
		t.Error("bug 69951 (alias store forwarding) not found from Figure 2 seed")
	}
	if rep.Stats.CrashFindings == 0 {
		t.Error("no crash findings")
	}
	if rep.Stats.WrongFindings == 0 {
		t.Error("no wrong-code findings")
	}
	if rep.Stats.VariantsClean == 0 || rep.Stats.Variants == 0 {
		t.Error("no variants tested")
	}
	// SPE's reduction must be visible in the aggregate counts
	if rep.Stats.CanonicalTotal.Cmp(rep.Stats.NaiveTotal) >= 0 {
		t.Errorf("canonical total %s not below naive total %s",
			rep.Stats.CanonicalTotal, rep.Stats.NaiveTotal)
	}
}

func TestCampaignCleanCompilerFindsNothing(t *testing.T) {
	// Sanity: with all bugs fixed ("a future version"), differential
	// testing over a small corpus must report nothing. Build a pseudo
	// version by running unseeded compilers through the classifier: we
	// approximate by checking that unseeded compilation matches the
	// reference on every clean variant of one seed.
	rep, err := Run(Config{
		Corpus:             corpus.Seeds()[:2],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// the findings must all be attributable to seeded bugs (non-empty ID)
	for _, fd := range rep.Findings {
		if fd.BugID == "" && fd.Kind == minicc.BugWrongCode {
			t.Errorf("unattributed wrong-code finding (possible harness false positive): %q\n%s",
				fd.Signature, fd.TestCase)
		}
	}
}

func TestThresholdSkipsLargeFiles(t *testing.T) {
	big := `
int a, b, c, d;
int main() {
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    a = b; b = c; c = d; d = a;
    return 0;
}`
	rep, err := Run(Config{
		Corpus:    []string{big},
		Threshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.FilesSkipped != 1 {
		t.Errorf("files skipped = %d, want 1", rep.Stats.FilesSkipped)
	}
	if rep.Stats.Variants != 0 {
		t.Errorf("variants = %d, want 0", rep.Stats.Variants)
	}
}

func TestUBVariantsFiltered(t *testing.T) {
	// enumerating this skeleton produces divisions by a zero-initialized
	// variable; the reference interpreter must filter those variants
	seed := `
int main() {
    int a = 0, b = 2;
    int r = 10 / b;
    printf("%d\n", r);
    return 0;
}`
	rep, err := Run(Config{
		Corpus:             []string{seed},
		MaxVariantsPerFile: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.VariantsUB == 0 {
		t.Error("no UB variants filtered; expected divisions by zero under re-filling")
	}
	if rep.Stats.VariantsClean == 0 {
		t.Error("no clean variants")
	}
}
