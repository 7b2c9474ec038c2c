package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// checkpointVersion guards the on-disk format. Version 2 added the
// scheduler steering block (coverage frontier, cost model, per-file
// scores); version 3 added the region scheduler's per-region steering
// (scores, EWMA costs, and frontiers keyed "seed:region"). Version 2
// files still load — steering is advisory, so a resumed region campaign
// simply restarts its per-region state from the optimistic init while
// the campaign-wide frontier carries over, and the report is identical.
const checkpointVersion = 3

// minCheckpointVersion is the oldest format loadCheckpoint accepts.
const minCheckpointVersion = 2

// checkpointFile is the JSON document written at shard-merge boundaries.
// It captures the full aggregator state after the first NextSeq shard
// tasks, so a resumed campaign regenerates the (deterministic) task
// sequence, skips the merged prefix, and continues as if never
// interrupted. Config is embedded whole — corpus included — so Resume
// needs nothing but the path.
type checkpointFile struct {
	Version int
	Config  Config
	// NextSeq is the number of shard tasks merged into this state.
	NextSeq     int
	Stats       Stats
	Findings    []*Finding
	Attribution map[string]string
	// Steering carries the coverage frontier and cost model so a resumed
	// campaign keeps the dispatch steering it had learned (merely
	// advisory: it never affects the final Report).
	Steering *steering
}

// writeCheckpoint atomically persists the aggregator state plus the
// scheduler's steering snapshot.
func writeCheckpoint(cfg Config, st *aggState, steer *steering) error {
	ck := &checkpointFile{
		Version:     checkpointVersion,
		Config:      cfg,
		NextSeq:     st.nextSeq,
		Stats:       st.stats,
		Attribution: st.attribution,
		Steering:    steer,
	}
	keys := make([]string, 0, len(st.byKey))
	for k := range st.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ck.Findings = append(ck.Findings, st.byKey[k])
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	tmp := cfg.CheckpointPath + ".tmp"
	if err := os.MkdirAll(filepath.Dir(cfg.CheckpointPath), 0o755); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, cfg.CheckpointPath); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpoint reads a checkpoint back into aggregator state.
func loadCheckpoint(path string) (Config, *aggState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, fmt.Errorf("campaign: resume: %w", err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return Config{}, nil, fmt.Errorf("campaign: resume %s: %w", path, err)
	}
	if ck.Version < minCheckpointVersion || ck.Version > checkpointVersion {
		return Config{}, nil, fmt.Errorf("campaign: resume %s: checkpoint version %d, want %d..%d",
			path, ck.Version, minCheckpointVersion, checkpointVersion)
	}
	st := newAggState()
	st.nextSeq = ck.NextSeq
	st.stats = ck.Stats
	if st.stats.NaiveTotal == nil || st.stats.CanonicalTotal == nil {
		return Config{}, nil, fmt.Errorf("campaign: resume %s: malformed stats", path)
	}
	for _, fd := range ck.Findings {
		st.byKey[fd.key()] = fd
	}
	if ck.Attribution != nil {
		st.attribution = ck.Attribution
	}
	st.steer = ck.Steering
	return ck.Config, st, nil
}

// Resume continues a checkpointed campaign from its last persisted state
// and runs it to completion, producing the same Report an uninterrupted
// run would have (the checkpoint carries the whole config, corpus
// included). The campaign keeps checkpointing to the same path.
func Resume(path string) (*Report, error) {
	return ResumeContext(context.Background(), path)
}

// ResumeContext is Resume with cancellation.
func ResumeContext(ctx context.Context, path string) (*Report, error) {
	return ResumeTelemetry(ctx, path, nil)
}

// ResumeTelemetry is ResumeContext with live telemetry attached to the
// resumed run (checkpoints never persist telemetry — Config.Telemetry is
// json:"-" — so it must be re-supplied on resume). tel may be nil.
func ResumeTelemetry(ctx context.Context, path string, tel *Telemetry) (*Report, error) {
	e, err := ResumeRemoteEngine(path, tel)
	if err != nil {
		return nil, err
	}
	return e.runLocal(ctx)
}
