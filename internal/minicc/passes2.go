package minicc

// Dead code elimination, dead store elimination, CFG simplification,
// store-to-load forwarding with alias analysis, and loop-invariant code
// motion.

// dce removes pure instructions whose results are never used and performs
// in-block dead store elimination on direct variable stores. The seeded bug
// "dce-dead-store-call" ignores calls as barriers for dead-store
// elimination (a callee may observe a global through its own access).
func dce(f *Func, p *passCtx) {
	p.cov.Hit("dce.entry")
	deadStoreBug := p.bugs.Active("dce-dead-store-call")
	width := f.NumRegs + 1

	// mark: registers used anywhere (instruction operands + terminators)
	p.used = grow(p.used, width)
	used := p.used
	for changed := true; changed; {
		changed = false
		clear(used)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case OpBin, OpAddrIdx, OpStore:
					used[in.A] = true
					used[in.B] = true
				case OpUn, OpConv, OpCopy, OpLoad:
					used[in.A] = true
				case OpCall:
					for _, r := range in.Args {
						used[r] = true
					}
				}
			}
			if b.Term.Kind == TermBr {
				used[b.Term.Cond] = true
			}
			if b.Term.Kind == TermRet && b.Term.HasVal {
				used[b.Term.Val] = true
			}
		}
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.pure() && in.Dst != NoReg && !used[in.Dst] {
					p.cov.hit(siteDCERemove)
					changed = true
					continue
				}
				kept = append(kept, *in)
			}
			b.Instrs = kept
		}
	}

	// in-block dead store elimination on AddrVar-rooted stores
	addrSym, last, dead := &p.addrSym, &p.lastStore, &p.dead
	for _, b := range f.Blocks {
		// addrSym[r] = ID of the symbol whose address r holds (possibly via
		// offsets)
		addrSym.reset(width)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == OpAddrVar {
				addrSym.set(in.Dst, in.Sym.ID)
				last.fit(in.Sym.ID + 1)
			}
		}
		// scan forward: a store to symbol S is dead if the next access to S
		// in this block is another store with no interfering read/call
		// (bug: calls not treated as reads); last[S] is the index of S's
		// pending store
		last.clear()
		dead.reset(len(b.Instrs))
		anyDead := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpStore:
				sym, known := addrSym.get(in.A)
				if !known {
					// store through an arbitrary pointer: could touch any
					// variable; forget all pending stores
					last.clear()
					continue
				}
				if idx, ok := last.get(sym); ok {
					p.cov.hit(siteDCEDeadStore)
					dead.add(idx)
					anyDead = true
				}
				last.set(sym, i)
			case OpLoad:
				if sym, known := addrSym.get(in.A); known {
					last.del(sym)
				} else {
					last.clear()
				}
			case OpCall:
				if !deadStoreBug {
					last.clear()
				}
			}
		}
		if anyDead {
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if !dead.has(i) {
					kept = append(kept, b.Instrs[i])
				}
			}
			b.Instrs = kept
		}
	}
}

// simplifyCFG drops unreachable blocks, threads empty jump blocks, and
// merges single-pred/single-succ chains.
func simplifyCFG(f *Func, p *passCtx) {
	p.cov.Hit("simplifycfg.entry")
	// thread empty jump-only blocks
	width := blockWidth(f)
	seen := &p.threaded
	redirect := func(b *Block) *Block {
		seen.reset(width)
		for b != nil && len(b.Instrs) == 0 && b.Term.Kind == TermJmp && !seen.has(b.ID) {
			seen.add(b.ID)
			p.cov.hit(siteSimplifyCFGThread)
			b = b.Term.To
		}
		return b
	}
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case TermJmp:
			b.Term.To = redirect(b.Term.To)
		case TermBr:
			b.Term.To = redirect(b.Term.To)
			b.Term.Else = redirect(b.Term.Else)
			if b.Term.To == b.Term.Else {
				b.Term = Term{Kind: TermJmp, To: b.Term.To, Pos: b.Term.Pos}
			}
		}
	}
	f.Entry = redirect(f.Entry)

	// drop unreachable blocks (which leaves reachability and predecessors
	// as analyzed)
	cfg := &p.cfg
	cfg.analyze(f)
	if len(cfg.order) != len(f.Blocks) {
		p.cov.Hit("simplifycfg.unreachable")
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if cfg.reachable(b) {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}

	// merge b -> s when s has exactly one predecessor and b jumps to it
	merged := &p.merged
	merged.reset(cfg.width)
	anyMerged := false
	p.blocks = append(p.blocks[:0], f.Blocks...)
	for _, b := range p.blocks {
		if merged.has(b.ID) {
			continue
		}
		for b.Term.Kind == TermJmp {
			s := b.Term.To
			if s == b || len(cfg.preds(s)) != 1 || s == f.Entry || merged.has(s.ID) {
				break
			}
			p.bugs.MaybeCrash(p.cov, "simplifycfg-merge-label", func() bool {
				return len(s.Label) > 6 && s.Label[:6] == "label."
			})
			p.cov.hit(siteSimplifyCFGMerge)
			b.Instrs = append(b.Instrs, s.Instrs...)
			b.Term = s.Term
			merged.add(s.ID)
			anyMerged = true
			ss, n := b.succs()
			for _, t := range ss[:n] {
				pt := cfg.preds(t)
				for i, q := range pt {
					if q == s {
						pt[i] = b
					}
				}
			}
		}
	}
	if anyMerged {
		kept := f.Blocks[:0]
		for _, b := range f.Blocks {
			if !merged.has(b.ID) {
				kept = append(kept, b)
			}
		}
		f.Blocks = kept
	}
	// renumber
	for i, b := range f.Blocks {
		b.ID = i
	}
}

// aliasForward forwards direct variable stores to subsequent loads within a
// block. A store through an arbitrary pointer may alias any variable and
// must invalidate the forwarding table; the seeded bug "alias-store-forward"
// skips that invalidation — the model of the paper's Figure 2 bug (GCC
// 69951), where two names for the same storage defeat the alias analysis.
func aliasForward(f *Func, p *passCtx) {
	p.cov.Hit("alias.entry")
	buggy := p.bugs.Active("alias-store-forward")
	width := f.NumRegs + 1
	p.ver = grow(p.ver, width)
	addrSym := &p.addrSym // reg -> symbol ID (direct AddrVar only)
	stored := &p.stored   // symbol ID -> last stored value reg
	for _, b := range f.Blocks {
		addrSym.reset(width)
		stored.clear()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case OpAddrVar:
				addrSym.set(in.Dst, in.Sym.ID)
				stored.fit(in.Sym.ID + 1)
			case OpStore:
				if sid, ok := addrSym.get(in.A); ok {
					stored.set(sid, p.at(in.B))
					continue
				}
				// store through a pointer: may alias anything
				if !buggy {
					p.cov.hit(siteAliasClobber)
					stored.clear()
				}
			case OpLoad:
				if sid, ok := addrSym.get(in.A); ok {
					if v, okv := stored.get(sid); okv && p.live(v) {
						p.cov.hit(siteAliasForward)
						*in = Instr{Op: OpCopy, Dst: in.Dst, A: v.reg, Pos: in.Pos}
						continue
					}
				}
			case OpCall:
				// the callee may store to any variable
				stored.clear()
			case OpAddrIdx:
				// derived pointers are not tracked; nothing to do
			default:
				if in.Dst != NoReg {
					// a redefined value register invalidates forwarding of
					// that register (its stored entries go stale)
					p.ver[in.Dst]++
					addrSym.del(in.Dst)
				}
			}
		}
	}
}

// licm hoists loop-invariant pure computations into a preheader. Correct
// hoisting of potentially-trapping operations (division, modulo) requires
// the defining block to execute on every iteration (dominate all back-edge
// sources); the seeded bug "licm-hoist-conditional" skips that check.
func licm(f *Func, p *passCtx) {
	p.cov.Hit("licm.entry")
	hoistBug := p.bugs.Active("licm-hoist-conditional")
	cfg := &p.cfg
	cfg.analyze(f)
	cfg.dominators()
	loops := cfg.naturalLoops()
	if len(loops) == 0 {
		return
	}
	width := f.NumRegs + 1

	// count definitions of each register across the function (non-SSA)
	p.defCount = grow(p.defCount, width)
	defCount := p.defCount
	clear(defCount)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if d := b.Instrs[i].Dst; d != NoReg {
				defCount[d]++
			}
		}
	}

	definedIn := &p.definedIn // registers defined inside the loop
	// readsLoopDef reports whether a pure instruction reads a register
	// defined inside the loop
	readsLoopDef := func(in *Instr) bool {
		switch in.Op {
		case OpBin, OpAddrIdx:
			return definedIn.has(in.A) || definedIn.has(in.B)
		case OpUn, OpConv, OpCopy:
			return definedIn.has(in.A)
		}
		return false
	}
	for li := range loops {
		lp := &loops[li]
		p.cov.hit(siteLICMLoop)
		p.bugs.MaybeCrash(p.cov, "licm-crash-nested-loop", func() bool {
			// nested loop whose header is shared loop body: another loop's
			// header inside this loop's body
			for oi := range loops {
				if oi != li && lp.contains(loops[oi].header) && len(cfg.preds(loops[oi].header)) >= 3 {
					return true
				}
			}
			return false
		})
		// back-edge sources, and the preheader: the unique predecessor
		// outside the loop
		latches := p.latches[:0]
		var pre *Block
		outside := 0
		for _, q := range cfg.preds(lp.header) {
			if lp.contains(q) {
				latches = append(latches, q)
			} else {
				outside++
				pre = q
			}
		}
		p.latches = latches
		if outside != 1 || pre.Term.Kind != TermJmp {
			continue // no convenient preheader; skip this loop
		}

		definedIn.reset(width)
		for _, b := range f.Blocks {
			if !lp.contains(b) {
				continue
			}
			for i := range b.Instrs {
				if d := b.Instrs[i].Dst; d != NoReg {
					definedIn.add(d)
				}
			}
		}
		hoisted := true
		for hoisted {
			hoisted = false
			// f.Blocks order: the preheader's instruction order (and which
			// hoists a round admits) follows this walk
			for _, b := range f.Blocks {
				if !lp.contains(b) {
					continue
				}
				kept := b.Instrs[:0]
				for i := range b.Instrs {
					in := &b.Instrs[i]
					canHoist := in.pure() && in.Dst != NoReg && defCount[in.Dst] == 1 && !readsLoopDef(in)
					if canHoist {
						trapping := in.Op == OpBin && (in.BinOp == "/" || in.BinOp == "%")
						if trapping && !hoistBug {
							// only hoist when b executes every iteration
							for _, latch := range latches {
								if !cfg.dominates(b, latch) {
									canHoist = false
									break
								}
							}
						}
					}
					if canHoist {
						p.cov.hit(siteLICMHoist)
						if in.Op == OpBin {
							p.cov.hitOp(familyLICMHoist, in.BinOp)
						}
						pre.Instrs = append(pre.Instrs, *in)
						definedIn.del(in.Dst)
						hoisted = true
						continue
					}
					kept = append(kept, *in)
				}
				b.Instrs = kept
			}
		}
	}
}
