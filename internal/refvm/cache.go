// Package refvm is the bytecode reference oracle: the UB-checking
// reference semantics of the cc C subset (see internal/interp), compiled
// once per skeleton template into a compact, flat bytecode and executed on
// dense register/slot frames with 24-byte {kind, bits, type-index} values.
//
// It exists for one reason: after PR 3–4 made variant instantiation and
// the minicc backend nearly free, the tree-walking reference interpreter
// was ~85% of campaign hot-path CPU. refvm applies the repository's
// template discipline to the oracle itself — all variants of a skeleton
// share their syntax, so the oracle's per-variant work shrinks to
// patching the hole-fed variable references recorded during compilation
// (the same trace-and-patch idea as minicc.Cache) and running the
// bytecode.
//
// Equivalence contract: for every analyzed program, Run and Cache.Run
// return a Result observationally identical to internal/interp — the same
// output bytes, exit status, abort flag, undefined-behavior verdict (kind
// and position), and resource-limit presence — and, on defined runs, the
// same step count (the campaign derives the compiled binary's execution
// budget from a defined run's steps, so those Steps must match for
// reports to stay byte-identical across oracles). On step-limited runs
// Steps and the limit message may differ: an instruction charges the
// steps of the nodes it bundles before it executes, so refvm can stop a
// few steps above the tree-walker and name a neighbouring position. UB
// message text is matched on a best-effort basis; the structured fields
// are the contract, pinned by the package's corpus-wide differential
// tests (diff compares Steps on defined runs only). The threaded and
// switch loops agree on every Result field, step-limited runs included:
// the threaded loop's loop detector (loop.go) cuts runs short only where
// it proves the Result unchanged.
//
// Concurrency and ownership: package-level Run is safe from any goroutine
// (private compile + private machine per call). A Cache is strictly
// single-goroutine — campaign workers each check one out per shard task —
// and the Result of Cache.Run is caller-owned (no aliasing of pooled
// state), while the machine's slab, frames, and stacks are reset, not
// reallocated, between runs.
package refvm

import (
	"spe/internal/cc"
	"spe/internal/interp"
)

// Run compiles prog fresh and executes it on a private machine. Use a
// Cache on the campaign hot path, which compiles once per skeleton.
func Run(prog *cc.Program, cfg Config) *interp.Result {
	p := compileProgram(prog, nil)
	return newVMState().run(p, cfg)
}

// template is the cached compilation of one skeleton template program,
// plus the patch bookkeeping that retargets its hole sites per variant.
type template struct {
	p      *program
	holes  []*cc.Ident
	holeFn []int // each hole's enclosing function index
	// cur tracks each hole's currently patched symbol; patching diffs the
	// requested filling against it, so walking stride-neighbor variants
	// rewrites only the holes that moved.
	cur []*cc.Symbol
	// patchInfo memoizes the per-symbol slot descriptor (and whether the
	// symbol is patchable in place) — the candidate set of a hole is
	// finite, so each symbol is resolved once per template.
	patchInfo map[*cc.Symbol]patchEntry
}

type patchEntry struct {
	vr varRef
	ok bool
}

// Cache is the per-worker reusable oracle backend: bytecode templates
// keyed on the identity of the analyzed template program, plus the pooled
// virtual machine. It is the oracle analogue of minicc.Cache and follows
// the same contract: strictly single-goroutine, holes must be the same
// slice identity-wise for every Run with the same prog, and rebinding a
// hole in place (skeleton.Instance.Instantiate) between Runs is the
// supported way to select a variant.
type Cache struct {
	templates map[*cc.Program]*template
	vm        *vmState
	stats     CacheStats
}

// CacheStats counts the oracle cache's template activity: bytecode
// templates compiled (once per skeleton per cache), runs served by
// patching the moved holes in place, runs that fell back to a fresh
// compilation of the patched tree (type-shape drift), runs by dispatch
// mode, batched-execution activity (RunBatch runs and the number of
// batches they arrived in), and step-limited runs the loop detector cut
// short by each proof (loop.go). Plain ints — the cache is
// single-goroutine — read by the campaign's telemetry once per shard.
type CacheStats struct {
	TemplateCompiles int64
	PatchRuns        int64
	Fallbacks        int64
	ThreadedRuns     int64
	SwitchRuns       int64
	BatchRuns        int64
	Batches          int64
	CycleSkips       int64
	CounterSkips     int64
}

// Sub returns the stats delta since base.
func (s CacheStats) Sub(base CacheStats) CacheStats {
	return CacheStats{
		TemplateCompiles: s.TemplateCompiles - base.TemplateCompiles,
		PatchRuns:        s.PatchRuns - base.PatchRuns,
		Fallbacks:        s.Fallbacks - base.Fallbacks,
		ThreadedRuns:     s.ThreadedRuns - base.ThreadedRuns,
		SwitchRuns:       s.SwitchRuns - base.SwitchRuns,
		BatchRuns:        s.BatchRuns - base.BatchRuns,
		Batches:          s.Batches - base.Batches,
		CycleSkips:       s.CycleSkips - base.CycleSkips,
		CounterSkips:     s.CounterSkips - base.CounterSkips,
	}
}

// Stats returns the cache's cumulative activity counters.
func (ca *Cache) Stats() CacheStats { return ca.stats }

// NewCache returns an empty oracle cache.
func NewCache() *Cache {
	return &Cache{templates: make(map[*cc.Program]*template), vm: newVMState()}
}

// Run executes the variant currently bound into prog's holes. The
// template is compiled on first use; later calls patch only the moved
// holes' recorded sites. A hole rebound to a symbol the template cannot
// patch in place (a different storage class is fine — slots carry their
// class — but a type change would alter the compiled load/decay shape)
// falls back to a fresh compilation of the already-patched tree, exactly
// like minicc.Cache's fresh-lowering fallback. Unlike minicc, '&'-holes
// need no fallback: the oracle has no register promotion to invalidate.
func (ca *Cache) Run(prog *cc.Program, holes []*cc.Ident, cfg Config) *interp.Result {
	tm := ca.template(prog, holes)
	ca.countDispatch(cfg)
	return ca.runPatched(tm, prog, holes, cfg)
}

// RunBatch executes n variants of one skeleton on a single checked-out
// VM without returning pooled state between runs: the template is looked
// up (or compiled) once, then for each i the caller's bind(i) rebinds
// the instance's holes in place, the cache re-patches only the moved
// sites, runs, and hands the Result to yield(i, res). A bind or yield
// error stops the batch and is returned. Results are caller-owned, like
// Cache.Run's. This is the campaign worker's shard path: neighboring
// fills differ in few holes, so per-variant oracle work collapses to a
// handful of varRef rewrites plus the run itself.
func (ca *Cache) RunBatch(prog *cc.Program, holes []*cc.Ident, cfg Config, n int,
	bind func(i int) error, yield func(i int, res *interp.Result) error) error {
	tm := ca.template(prog, holes)
	ca.stats.Batches++
	for i := 0; i < n; i++ {
		if err := bind(i); err != nil {
			return err
		}
		ca.stats.BatchRuns++
		ca.countDispatch(cfg)
		if err := yield(i, ca.runPatched(tm, prog, holes, cfg)); err != nil {
			return err
		}
	}
	return nil
}

// template returns prog's cached compilation, compiling it on first use.
func (ca *Cache) template(prog *cc.Program, holes []*cc.Ident) *template {
	tm, ok := ca.templates[prog]
	if !ok {
		ca.stats.TemplateCompiles++
		tm = &template{
			p:         compileProgram(prog, holes),
			holes:     holes,
			holeFn:    make([]int, len(holes)),
			cur:       make([]*cc.Symbol, len(holes)),
			patchInfo: make(map[*cc.Symbol]patchEntry),
		}
		for i, id := range holes {
			tm.cur[i] = id.Sym
			tm.holeFn[i] = id.FuncIdx
		}
		ca.templates[prog] = tm
	}
	return tm
}

// runPatched patches the moved holes and runs the template, falling back
// to a fresh compilation when a hole cannot be patched in place.
func (ca *Cache) runPatched(tm *template, prog *cc.Program, holes []*cc.Ident, cfg Config) *interp.Result {
	p := tm.p
	if tm.patch(holes) {
		ca.stats.PatchRuns++
	} else {
		// fresh-compile fallback: the patched tree is authoritative
		ca.stats.Fallbacks++
		p = compileProgram(prog, nil)
	}
	res := ca.vm.run(p, cfg)
	switch ca.vm.loop.skipped {
	case proofCycle:
		ca.stats.CycleSkips++
	case proofCounter:
		ca.stats.CounterSkips++
	}
	return res
}

func (ca *Cache) countDispatch(cfg Config) {
	if cfg.Dispatch == DispatchSwitch {
		ca.stats.SwitchRuns++
	} else {
		ca.stats.ThreadedRuns++
	}
}

// patch retargets the sites of every hole whose symbol moved since the
// last call, reporting false when some hole cannot be patched in place
// (the template stays consistent either way: holes patched before the
// failing one keep their new binding and cur reflects it).
func (tm *template) patch(holes []*cc.Ident) bool {
	for i, id := range holes {
		sym := id.Sym
		if sym == tm.cur[i] {
			continue
		}
		pe, ok := tm.patchInfo[sym]
		if !ok {
			pe = tm.resolve(sym)
			tm.patchInfo[sym] = pe
		}
		// the compiled load/decay shape is a function of the hole's type;
		// every candidate the skeleton admits shares it, and a local
		// candidate is necessarily visible in the hole's own function —
		// but a caller rebinding holes by hand could violate either, so
		// verify and fall back rather than corrupt the template.
		if !pe.ok || pe.vr.allocT != tm.p.holeT[i] ||
			(sym.FuncIdx >= 0 && sym.FuncIdx != tm.holeFn[i]) {
			return false
		}
		for _, vi := range tm.p.holeSites[i] {
			tm.p.varRefs[vi] = pe.vr
		}
		tm.cur[i] = sym
	}
	return true
}

// resolve builds the slot descriptor of one candidate symbol from the
// template program's deterministic slot assignment.
func (tm *template) resolve(sym *cc.Symbol) patchEntry {
	p := tm.p
	if sym == nil || sym.ID < 0 || sym.ID >= len(p.slotOf) {
		return patchEntry{}
	}
	vr := varRef{
		allocT: p.tt.intern(sym.Type),
		elem:   p.tt.intern(elemOfType(sym.Type)),
		name:   p.internName(sym.Name),
	}
	if sym.FuncIdx < 0 {
		vr.global = true
		vr.slot = p.gslotOf[sym.ID]
	} else {
		vr.slot = p.slotOf[sym.ID]
	}
	return patchEntry{vr: vr, ok: true}
}
