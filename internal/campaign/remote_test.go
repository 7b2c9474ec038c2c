package campaign

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestUnknownVersionRejected pins the version check every entry point
// shares: a version minicc does not simulate, or an empty name, is an
// error naming it in Run, the fabric worker's NewPlanner and Resume,
// instead of a campaign that tests trunk's bug set under that label.
func TestUnknownVersionRejected(t *testing.T) {
	src := []string{"int main() { return 0; }"}
	for _, v := range []string{"6.1", ""} {
		want := "unknown version " + strconv.Quote(v)
		cfg := Config{Corpus: src, Versions: []string{"trunk", v}}
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run with version %q: error %v, want one containing %s", v, err, want)
		}
		if _, err := NewPlanner(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewPlanner with version %q: error %v, want one containing %s", v, err, want)
		}
		path := filepath.Join(t.TempDir(), "ck.json")
		if err := writeCheckpoint(Config{Corpus: src, Versions: []string{v}, CheckpointPath: path}.withDefaults(), newAggState(), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Resume of a checkpoint with version %q: error %v, want one containing %s", v, err, want)
		}
	}
}

// TestDispatchWindowBoundsReorderBuffer pins the one dispatch window: a
// dispatched task holds its credit until it merges, not merely until its
// result arrives. With the head task leased and held, delivering every
// later task therefore cannot let dispatch run past Lookahead, and the
// reorder buffer stays bounded however far the head lags.
func TestDispatchWindowBoundsReorderBuffer(t *testing.T) {
	cfg := flavorBaseConfig()
	cfg.Workers = 1
	cfg.Lookahead = 8
	eng, err := NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(eng.Config())
	if err != nil {
		t.Fatal(err)
	}
	if eng.TotalTasks() <= cfg.Lookahead {
		t.Fatalf("plan has %d tasks, not more than the window of %d; the test exercises nothing", eng.TotalTasks(), cfg.Lookahead)
	}
	ctx := context.Background()
	head, ok := eng.NextTask()
	if !ok || head.Seq != 0 {
		t.Fatalf("first lease = (%+v, %v), want seq 0", head, ok)
	}
	dispatched := 1
	for {
		spec, ok := eng.NextTask()
		if !ok {
			break
		}
		dispatched++
		res, err := p.RunSpec(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Deliver(res); err != nil {
			t.Fatal(err)
		}
	}
	if dispatched != cfg.Lookahead {
		t.Fatalf("dispatched %d tasks behind an unmerged head, want the window's %d", dispatched, cfg.Lookahead)
	}

	// the head's merge drains the buffer and frees the window again
	res, err := p.RunSpec(ctx, head)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Deliver(res); err != nil {
		t.Fatal(err)
	}
	if got := eng.MergedTasks(); got != cfg.Lookahead {
		t.Fatalf("merged %d tasks once the head arrived, want %d", got, cfg.Lookahead)
	}
	if spec, ok := eng.NextTask(); !ok || spec.Seq != cfg.Lookahead {
		t.Fatalf("next lease after the merge = (%+v, %v), want seq %d", spec, ok, cfg.Lookahead)
	}
}
