package campaign

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/refvm"
	"spe/internal/spe"
)

// The shard walk: instead of interleaving oracle and compiler work per
// variant, a shard first drains all of its oracle verdicts through
// refvm.Cache.RunBatch on one checked-out VM — each neighboring fill is
// rebound into the held instance and only the moved hole sites are
// re-patched between runs — and then replays the compiler configurations
// over the clean variants. The split keeps the oracle's bytecode, handler
// tables, and slab hot in cache across the whole shard and drops the
// per-variant template lookup.
//
// Phase 2 walks configurations in the outer loop: each (version, opt)
// pair drains every clean variant in ascending order through
// minicc.Cache.RunBatch. One compiler configuration's template trace,
// pass pipeline, and fused VM state then stay hot across the whole
// shard, and the per-run setup (bug-set resolution, template lookup) is
// paid once per configuration instead of once per execution.
//
// Determinism: every loop walks the shard's enumeration indices in
// ascending order (and configurations in the campaign's canonical
// version-outer, opt-inner order), so the refvm patch sequence, the
// minicc replay sequence, coverage recording, and symptom emission are a
// pure function of the task. Attribution is keyed per (version, opt,
// symptom class) and each variant passes its walk position, so the
// file's lowest-positioned variant showing a key is the one whose verdict
// merges first. Clean variants are re-instantiated per phase and per
// configuration; instantiation is orders of magnitude cheaper than a
// compile+execute, so the extra binds are noise next to the locality
// won.

// runShardBatch processes one shard's enumerated variants through the
// two-phase walk, appending to res.variants. The -paranoid cross-checks
// ride inside it: sema invariants and a fresh parse per phase-1 bind, the
// tree-walker's verdict per oracle run, and a fresh lowering per patched
// compilation.
func runShardBatch(ctx context.Context, cfg Config, t *task, space *spe.Space, be *backendState, cov *minicc.Coverage, so *shardObs, res *taskResult) error {
	n := int(t.toJ - t.fromJ)
	idx := new(big.Int)
	stride := big.NewInt(t.plan.stride)
	setIdx := func(i int) {
		idx.SetInt64(t.fromJ + int64(i))
		idx.Mul(idx, stride)
	}
	wrap := func(i int, err error) error {
		return fmt.Errorf("campaign: corpus[%d] variant %d: %w", t.plan.seedIdx, t.fromJ+int64(i), err)
	}

	// RunBatch needs the analyzed template program and hole metadata
	// before its first bind, so the first variant is acquired up front and
	// bind(0) skips straight to the cross-checks.
	setIdx(0)
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	in, release, err := space.AcquireAt(idx)
	if so != nil {
		so.instNs += time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return wrap(0, err)
	}
	defer release()
	prog := in.Program()
	holes := in.HoleIdents()

	// phase 1: every oracle verdict for the shard, one batch, one VM
	refs := make([]*interp.Result, n)
	var tOracle time.Time
	bind := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i > 0 {
			setIdx(i)
			if so != nil {
				t0 = time.Now()
			}
			fill, _, err := space.FillDeltaAt(idx)
			if err == nil {
				err = in.Instantiate(fill)
			}
			if so != nil {
				so.instNs += time.Since(t0).Nanoseconds()
			}
			if err != nil {
				return wrap(i, err)
			}
		}
		if cfg.Paranoid {
			if so != nil {
				so.paranoidChecks++
			}
			if err := crossCheckVariant(prog, cc.PrintFile(prog.File)); err != nil {
				return wrap(i, err)
			}
		}
		if so != nil {
			tOracle = time.Now()
		}
		return nil
	}
	yield := func(i int, ref *interp.Result) error {
		if cfg.Paranoid {
			if so != nil {
				so.paranoidChecks++
			}
			if err := crossCheckOracle(be.mach.Run(prog, interp.Config{MaxSteps: cfg.Steps}), ref); err != nil {
				return wrap(i, err)
			}
		}
		if so != nil {
			so.oracleNs += time.Since(tOracle).Nanoseconds()
		}
		refs[i] = ref
		return nil
	}
	rcfg := refvm.Config{MaxSteps: cfg.Steps, Dispatch: cfg.Dispatch}
	if err := be.ref.RunBatch(prog, holes, rcfg, n, bind, yield); err != nil {
		return err
	}

	// phase 2, config-outer: each (version, opt) pair drains all clean
	// variants in ascending order through minicc.Cache.RunBatch, so one
	// configuration's template trace and VM stay hot across the shard
	slots := make([]variantResult, n)
	var recs []symRec
	clean := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if refs[i].Defined() {
			slots[i].status = statusClean
			clean = append(clean, i)
		} else {
			slots[i].status = statusUB
		}
	}
	if len(clean) > 0 {
		var tRun time.Time
		bound := clean[0]
		for _, ver := range cfg.Versions {
			for _, opt := range cfg.OptLevels {
				comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
				bind := func(k int) (minicc.ExecConfig, error) {
					i := clean[k]
					bound = i
					if err := ctx.Err(); err != nil {
						return minicc.ExecConfig{}, err
					}
					setIdx(i)
					if so != nil {
						t0 = time.Now()
					}
					fill, _, err := space.FillDeltaAt(idx)
					if err == nil {
						err = in.Instantiate(fill)
					}
					if so != nil {
						now := time.Now()
						so.instNs += now.Sub(t0).Nanoseconds()
						tRun = now
					}
					if err != nil {
						return minicc.ExecConfig{}, err
					}
					return minicc.ExecConfig{MaxSteps: execSteps(refs[i]), Dispatch: cfg.BackendDispatch}, nil
				}
				yield := func(k int, ro *minicc.RunOutcome) error {
					i := clean[k]
					if so != nil {
						now := time.Now()
						so.backendNs += now.Sub(tRun).Nanoseconds()
						t0 = now
					}
					slots[i].executions++
					if s, found := classifyOutcome(cfg, ver, opt, refs[i], ro, prog, &t.plan.attr, t.fromJ+int64(i), so); found {
						if slots[i].src == "" {
							// the instance is still bound to variant i while
							// yield runs, so the test case can render here
							slots[i].src = cc.PrintFile(prog.File)
						}
						recs = append(recs, symRec{slot: i, s: s})
					}
					if so != nil {
						so.classifyNs += time.Since(t0).Nanoseconds()
					}
					return nil
				}
				if err := comp.RunBatch(be.cache, prog, holes, cfg.Paranoid, len(clean), bind, yield); err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					return wrap(bound, err)
				}
			}
		}
	}
	// bucket-fill the arrival-ordered symptom records into one shard-wide
	// arena. Arrival order is config-outer, variant-inner; filtering it by
	// slot recovers each variant's canonical (version, opt) symptom order,
	// and the single allocation replaces one slice per symptomatic variant.
	// The arena is allocated fresh per shard and handed off with the
	// results, so nothing pooled escapes the task.
	if len(recs) > 0 {
		counts := make([]int, n)
		for _, r := range recs {
			counts[r.slot]++
		}
		arena := make([]symptom, len(recs))
		off := 0
		for i := range slots {
			c := counts[i]
			if c == 0 {
				continue
			}
			// zero-length, capacity-capped window: appends fill the arena in
			// place and can never cross into the next variant's bucket
			slots[i].symptoms = arena[off : off : off+c]
			off += c
		}
		for _, r := range recs {
			s := &slots[r.slot]
			s.symptoms = append(s.symptoms, r.s)
		}
	}
	res.variants = append(res.variants, slots...)
	return nil
}
