package campaign

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"spe/internal/cc"
	"spe/internal/interp"
	"spe/internal/minicc"
	"spe/internal/partition"
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
// per-variant template lookup. A file's original program takes the same
// walk as slot 0 of the file's first shard, so every program the campaign
// tests meets the same oracle and the same cached compilers.
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

// runShardBatch tests one shard's programs through the two-phase walk,
// appending to res.variants. Slot i holds walk position t.firstPos()+i:
// on the file's first shard, slot 0 is the file's original program
// (position -1, bound to the skeleton's own filling), and every other slot
// is an enumerated variant. The -paranoid cross-checks ride inside it:
// sema invariants and a fresh parse per phase-1 bind, the tree-walker's
// verdict per oracle run, and a fresh lowering per patched compilation.
// The walk keeps at on the program bound and the configuration running
// it, so its errors (and runTask's recovered panics) name both.
func runShardBatch(ctx context.Context, cfg Config, t *task, space *spe.Space, be *backendState, cov *minicc.Coverage, so *shardObs, at *shardPos, res *taskResult) error {
	first := t.firstPos()
	n := int(t.toJ - first)
	idx := new(big.Int)
	stride := big.NewInt(t.plan.stride)
	wrap := func(err error) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("campaign: corpus[%d] %v: %w", t.plan.seedIdx, at, err)
	}
	// t0 starts the stage being timed. Stage timing exists only when
	// telemetry is attached (so != nil): with telemetry off, no clock is
	// read.
	var t0 time.Time
	if so != nil {
		t0 = time.Now()
	}
	// RunBatch needs the analyzed template program and hole metadata
	// before its first bind, so the instance is acquired up front, at the
	// shard's first variant (index 0 on a shard that holds only the
	// original)
	at.pos = t.fromJ
	idx.SetInt64(t.fromJ)
	idx.Mul(idx, stride)
	in, release, err := space.AcquireAt(idx)
	if so != nil {
		so.instNs += time.Since(t0).Nanoseconds()
	}
	if err != nil {
		return wrap(err)
	}
	defer release()
	prog := in.Program()
	holes := in.HoleIdents()

	// bind binds slot i's program into the instance, for both phases: the
	// original is restored to its own filling, and a variant's filling is
	// unranked, unless the instance already holds that program. It leaves
	// t0 at the end of the bind.
	bound := t.fromJ
	bind := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		at.pos = first + int64(i)
		if so != nil {
			t0 = time.Now()
		}
		var err error
		switch {
		case at.pos == bound:
		case at.pos < 0:
			err = in.Restore()
		default:
			idx.SetInt64(at.pos)
			idx.Mul(idx, stride)
			var fill []partition.VarRef
			if fill, _, err = space.FillDeltaAt(idx); err == nil {
				err = in.Instantiate(fill)
			}
		}
		if err == nil {
			bound = at.pos
		}
		if so != nil {
			now := time.Now()
			so.instNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
		return err
	}

	// phase 1: every oracle verdict for the shard, one batch, one VM
	refs := make([]*interp.Result, n)
	check := func(i int) error {
		if err := bind(i); err != nil || !cfg.Paranoid {
			return err
		}
		if so != nil {
			so.paranoidChecks++
		}
		if err := crossCheckVariant(prog, cc.PrintFile(prog.File)); err != nil {
			return err
		}
		if so != nil {
			t0 = time.Now()
		}
		return nil
	}
	yield := func(i int, ref *interp.Result) error {
		if cfg.Paranoid {
			if so != nil {
				so.paranoidChecks++
			}
			if err := crossCheckOracle(be.mach.Run(prog, interp.Config{MaxSteps: cfg.Steps}), ref); err != nil {
				return err
			}
		}
		if so != nil {
			so.oracleNs += time.Since(t0).Nanoseconds()
		}
		refs[i] = ref
		return nil
	}
	rcfg := refvm.Config{MaxSteps: cfg.Steps, Dispatch: cfg.Dispatch}
	if err := be.ref.RunBatch(prog, holes, rcfg, n, check, yield); err != nil {
		return wrap(err)
	}

	// phase 2, config-outer: each (version, opt) pair drains all clean
	// programs in ascending order through minicc.Cache.RunBatch, so one
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
		for _, ver := range cfg.Versions {
			for _, opt := range cfg.OptLevels {
				at.ver, at.opt = ver, opt
				comp := &minicc.Compiler{Version: ver, Opt: opt, Seeded: true, Coverage: cov}
				next := func(k int) (minicc.ExecConfig, error) {
					i := clean[k]
					if err := bind(i); err != nil {
						return minicc.ExecConfig{}, err
					}
					return minicc.ExecConfig{MaxSteps: execSteps(refs[i]), Dispatch: cfg.BackendDispatch}, nil
				}
				yield := func(k int, ro *minicc.RunOutcome) error {
					i := clean[k]
					if so != nil {
						now := time.Now()
						so.backendNs += now.Sub(t0).Nanoseconds()
						t0 = now
					}
					slots[i].executions++
					if s, found := classifyOutcome(cfg, ver, opt, refs[i], ro, prog, &t.plan.attr, at.pos, so); found {
						if slots[i].src == "" {
							// the original's test case is its raw corpus
							// text; a variant's renders here, while the
							// instance is still bound to it
							slots[i].src = t.plan.src
							if at.pos >= 0 {
								slots[i].src = cc.PrintFile(prog.File)
							}
						}
						recs = append(recs, symRec{slot: i, s: s})
					}
					if so != nil {
						so.classifyNs += time.Since(t0).Nanoseconds()
					}
					return nil
				}
				if err := comp.RunBatch(be.cache, prog, holes, cfg.Paranoid, len(clean), next, yield); err != nil {
					return wrap(err)
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
