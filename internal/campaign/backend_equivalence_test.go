package campaign

import (
	"sync"
	"testing"

	"spe/internal/corpus"
)

// The equivalence tests compare against a one-worker Paranoid run of the
// same config rather than against a sibling cell. That run checks every
// variant against the references the hot path replaces: each rebind's
// sema invariants and a fresh parse of its rendering, each bytecode
// oracle verdict against the tree-walking interpreter, and each patched
// compilation against a fresh lowering. A report that matches it was
// produced by a walk whose every verdict agreed with those references.

// flavorBaseConfig is the small-but-real campaign the dispatch and
// shutdown tests share.
func flavorBaseConfig() Config {
	return Config{
		Corpus:             corpus.Seeds()[:5],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		ShardSize:          8,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// paranoidFormat runs cfg at one worker under Paranoid and returns its
// report text, the baseline every equivalence cell is compared against.
func paranoidFormat(cfg Config) (string, error) {
	cfg.Workers = 1
	cfg.Paranoid = true
	rep, err := Run(cfg)
	if err != nil {
		return "", err
	}
	return rep.Format(), nil
}

var flavorBaseline struct {
	once sync.Once
	text string
	err  error
}

// paranoidBaseline is the paranoid baseline of flavorBaseConfig, computed
// once per test binary: the dispatch tests all compare against it.
func paranoidBaseline(t *testing.T) string {
	t.Helper()
	flavorBaseline.once.Do(func() {
		flavorBaseline.text, flavorBaseline.err = paranoidFormat(flavorBaseConfig())
	})
	if flavorBaseline.err != nil {
		t.Fatal(flavorBaseline.err)
	}
	return flavorBaseline.text
}

// versionLadderConfig is the 4.8/6.0/trunk campaign over the full -O
// ladder, where seeded frontend crashes and wrong-code bugs come and go
// per version.
func versionLadderConfig() Config {
	return Config{
		Corpus:             corpus.Seeds()[:3],
		Versions:           []string{"4.8", "6.0", "trunk"},
		MaxVariantsPerFile: 40,
		Workers:            2,
	}
}

// TestBackendReusePlusVersions widens the configuration matrix: several
// compiler versions and the full -O ladder, where seeded frontend crashes
// come and go per version — the replayed crash-check trace of the pooled
// IR templates must track the live bug set exactly.
func TestBackendReusePlusVersions(t *testing.T) {
	cfg := versionLadderConfig()
	want, err := paranoidFormat(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustRun(t, cfg).Format(); got != want {
		t.Errorf("report diverges across versions:\n--- got ---\n%s--- paranoid ---\n%s", got, want)
	}
}

// TestOracleEquivalenceVersions runs the same ladder under the coverage
// schedule at three workers. Each bytecode oracle verdict sets the step
// budget of its compiled runs, and wrong-code attribution re-runs it
// against selectively deactivated bug sets, so any step-count or verdict
// drift would flip attribution verdicts here; the ladder must yield
// wrong-code findings for the check to bite.
func TestOracleEquivalenceVersions(t *testing.T) {
	cfg := versionLadderConfig()
	want, err := paranoidFormat(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule = ScheduleCoverage
	cfg.Workers = 3
	got := mustRun(t, cfg)
	if got.Stats.WrongFindings == 0 {
		t.Fatal("version ladder produced no wrong-code findings; test is vacuous")
	}
	if got.Format() != want {
		t.Errorf("report diverges across versions:\n--- got ---\n%s--- paranoid ---\n%s", got.Format(), want)
	}
}

// dirtyStateConfig is a one-file campaign whose variants mutate globals,
// static locals, and heap objects through pointers, and print.
func dirtyStateConfig() Config {
	dirty := `
int g = 1;
int h = 2;
int counter() { static int n = 0; n = n + 1; return n; }
int main() {
    int a = 3, b = 4;
    int buf[6];
    int *p = &a;
    int i;
    for (i = 0; i < 6; i++) buf[i] = g + i;
    g = g + b;
    h = h + a;
    *p = counter() + buf[2];
    printf("%d %d %d %d\n", g, h, a, counter());
    return g + h + a + b;
}
`
	return Config{
		Corpus:             []string{dirty},
		Versions:           []string{"trunk"},
		Threshold:          -1, // the probe's canonical space is large by design
		MaxVariantsPerFile: 120,
		Workers:            1,
	}
}

// TestBackendReuseDirtyState is the campaign-level dirty-state regression
// test. Under Paranoid every variant's pooled verdicts are checked
// against fresh references, so any state leaking from variant N into
// variant N+1 through a reused interpreter machine, bytecode VM slab,
// frame, static slot, string intern, or patched IR template aborts the
// campaign; one and four workers must also agree.
func TestBackendReuseDirtyState(t *testing.T) {
	cfg := dirtyStateConfig()
	cfg.Paranoid = true
	want := mustRun(t, cfg)
	if want.Stats.VariantsClean == 0 {
		t.Fatal("dirty-state corpus produced no clean variants; test is vacuous")
	}
	cfg.Workers = 4
	if got := mustRun(t, cfg).Format(); got != want.Format() {
		t.Errorf("dirty-state report diverges at 4 workers:\n--- got ---\n%s--- workers=1 ---\n%s", got, want.Format())
	}
}

// TestOracleDirtyState runs the dirty-state corpus without Paranoid, so
// the pooled bytecode VM and IR templates run variant after variant with
// no reference run, checked rebind, or fresh lowering in between; at one
// and four workers the report must match the paranoid one.
func TestOracleDirtyState(t *testing.T) {
	want, err := paranoidFormat(dirtyStateConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := dirtyStateConfig()
		cfg.Workers = workers
		if got := mustRun(t, cfg).Format(); got != want {
			t.Errorf("workers=%d: dirty-state report diverges:\n--- got ---\n%s--- paranoid ---\n%s", workers, got, want)
		}
	}
}

// TestReleasesWalkReplaysTemplates guards the backend's template traffic
// on the paper seeds across all four releases, at one worker. Of the
// walk's 15 728 compilations, 1 184 lower fresh with one IR template per
// shape class (at most 16 per program); one template per program would
// lower 4 416 fresh. The bound is loose: a spe.Pool miss after a garbage
// collection hands the next shard a new instance, whose program starts a
// new template list.
func TestReleasesWalkReplaysTemplates(t *testing.T) {
	tel := NewTelemetry()
	if _, err := Run(Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"4.8", "5.3", "6.0", "trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 100,
		Workers:            1,
		Telemetry:          tel,
	}); err != nil {
		t.Fatal(err)
	}
	fresh, builds := tel.miniccFreshLowerings.Load(), tel.miniccTemplateBuilds.Load()
	t.Logf("%d fresh lowerings, %d template builds, %d replays", fresh, builds, tel.miniccReplays.Load())
	if fresh > 1500 {
		t.Errorf("spe_minicc_fresh_lowerings_total = %d, want at most 1500", fresh)
	}
}
