package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"spe/internal/campaign"
	"spe/internal/corpus"
)

// smallConfig is a campaign small enough for a unit test that still has
// several files, shards per file and clean variants.
func smallConfig(t *testing.T) campaign.Config {
	return campaign.Config{
		Corpus:             corpus.Seeds()[:4],
		Versions:           []string{"4.8", "trunk"},
		Threshold:          -1,
		MaxVariantsPerFile: 12,
		ShardSize:          4,
		CheckpointEvery:    2,
		CheckpointPath:     filepath.Join(t.TempDir(), "checkpoint.json"),
	}
}

// TestTracedPathsMatchTheCampaign drives the same small campaign through
// every path the benchmark uses — in process, the traced drive, the
// loopback fabric and the replay — on two slots at once, and checks that
// the reports agree and that the trace accounts for the drive.
func TestTracedPathsMatchTheCampaign(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig(t)
	ref, err := runReference(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Format()

	cfg.Workers = 2
	plain := runInProcess(ctx, cfg)
	if plain.Err != "" || plain.Report != want || plain.Setup <= 0 || plain.Exec <= 0 {
		t.Fatalf("in-process run: err %q, setup %v, exec %v, same report %v", plain.Err, plain.Setup, plain.Exec, plain.Report == want)
	}

	tr := newTracer()
	dr, err := drive(ctx, cfg, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := dr.report.Format(); got != want {
		t.Fatalf("drive report differs:\n%s\nwant:\n%s", got, want)
	}
	if len(dr.ckptBytes) == 0 {
		t.Error("the drive wrote no checkpoint")
	}

	fr := runFabric(ctx, cfg, 2, true, tr)
	if fr.Err != "" || fr.Report != want {
		t.Fatalf("fabric run: err %q, same report %v", fr.Err, fr.Report == want)
	}
	if fr.transport.taskLeases == 0 || len(fr.transport.resultNs) != fr.Tasks {
		t.Errorf("fabric transport saw %d task leases and %d results for %d tasks",
			fr.transport.taskLeases, len(fr.transport.resultNs), fr.Tasks)
	}

	rp, err := newReplayer(plain.report, tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rp.pass(ctx, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rp.poolMisses() == 0 {
		t.Error("a pass that starts from empty pools missed no Space")
	}
	var tested int64
	for _, p := range ref.Plans {
		tested += p.Tested
	}
	if rs.variants != tested {
		t.Errorf("replayed %d variants, the plan tests %d", rs.variants, tested)
	}
	if clean := int64(ref.Stats.VariantsClean - len(ref.Plans)); rs.allExecs() < clean*4 {
		t.Errorf("replayed %d executions for about %d clean variants", rs.allExecs(), clean)
	}

	var out bytes.Buffer
	b := &bench{out: &out}
	v := map[string]float64{}
	spans := tr.snapshot()
	self := selfTimes(spans)
	b.layerMetrics(v, self, rs)
	// the layers of so small a campaign are too noisy to add up reliably;
	// the spans must still tile the slots' time
	if tiling, _ := b.reconcile(v, spans, self, dr, rs, 0); !within(tiling, tilingTolerance) {
		t.Errorf("the drive's spans do not tile its slots' time:\n%s", out.String())
	}
	for _, name := range []string{"refvm.ns_per_variant", "minicc.ns_per_exec.O3", "spe.instantiate_ns_per_variant", "spe.pool_get_ms", "campaign.shard_ms_p50"} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
}
