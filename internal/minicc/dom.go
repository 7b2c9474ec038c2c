package minicc

// CFG analyses: reachability, predecessors, iterative dominators, and
// natural-loop detection, used by constant propagation, SimplifyCFG and
// LICM.
//
// The analyses, like every pass's per-register, per-block and per-symbol
// table, are dense slices indexed by ID and reused across passes and
// compilations (passScratch, one per Cache). That layout rests on three
// invariants of the IR at every pass boundary, which TestPipelineGolden
// checks after every pass of every pipeline:
//
//  1. Block IDs are unique within a function, and the entry and every
//     branch target are blocks of the function. No pass creates blocks,
//     and simplifyCFG, the only pass that removes them, renumbers the
//     survivors 0..n-1. Block-indexed tables therefore span one past the
//     largest ID of f.Blocks.
//  2. No pass allocates a register, so every register operand lies in
//     [0, NumRegs] and register-indexed tables span NumRegs+1 entries.
//  3. Symbol IDs are dense and unique within a program (cc.Program.Symbols
//     is indexed by them), so symbol-indexed tables stay as small as the
//     program's symbol table and keying by ID never merges two variables.

// cfgInfo holds one function's reachability, predecessor, dominator and
// loop analyses, indexed by Block.ID. Each analysis overwrites the
// previous function's results in place.
type cfgInfo struct {
	// width is one past the largest block ID of the analyzed function.
	width int
	// order lists the blocks reachable from the entry in DFS preorder
	// (entry first, a branch's true target before its false target).
	order []*Block
	seen  []bool
	stack []*Block
	// predecessors over reachable blocks, each list in order of its
	// sources in order: block id's are predList[predOff[id]:predOff[id+1]].
	predOff  []int32
	predFill []int32
	predList []*Block
	// dom holds one bitset row of `words` words per block ID: bit a of row
	// b is set when a dominates b.
	dom   []uint64
	words int
	row   []uint64
	// loop bodies (bitsets of `words` words each) and the header-to-loop
	// index used while collecting them.
	loops     []loop
	loopBits  []uint64
	loopOf    denseMap[int, int]
	loopStack []*Block
}

// loop is a natural loop: a header plus its body blocks.
type loop struct {
	header *Block
	body   []uint64 // bitset by Block.ID; includes the header
}

// contains reports whether b belongs to the loop.
func (lp *loop) contains(b *Block) bool { return hasBit(lp.body, b.ID) }

func hasBit(set []uint64, i int) bool { return set[i>>6]&(1<<(uint(i)&63)) != 0 }
func setBit(set []uint64, i int)      { set[i>>6] |= 1 << (uint(i) & 63) }

// grow returns s with length n, reusing its storage when large enough.
// The contents are unspecified; callers clear what they read.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, n+n/4)
}

// blockWidth is one past the largest block ID of f: the length of a
// Block.ID-indexed table.
func blockWidth(f *Func) int {
	w := 0
	for _, b := range f.Blocks {
		w = max(w, b.ID+1)
	}
	return w
}

// analyze computes reachability and predecessors of f.
func (c *cfgInfo) analyze(f *Func) {
	w := blockWidth(f)
	c.width = w
	c.seen = grow(c.seen, w)
	clear(c.seen)
	// iterative preorder DFS: marking on pop and pushing successors in
	// reverse visits blocks in exactly the recursive walk's order
	c.order = c.order[:0]
	c.stack = append(c.stack[:0], f.Entry)
	for len(c.stack) > 0 {
		b := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if b == nil || c.seen[b.ID] {
			continue
		}
		c.seen[b.ID] = true
		c.order = append(c.order, b)
		ss, n := b.succs()
		for i := n - 1; i >= 0; i-- {
			c.stack = append(c.stack, ss[i])
		}
	}
	// predecessor lists by counting sort, stable in order
	c.predOff = grow(c.predOff, w+1)
	clear(c.predOff)
	for _, b := range c.order {
		ss, n := b.succs()
		for _, s := range ss[:n] {
			if s != nil {
				c.predOff[s.ID+1]++
			}
		}
	}
	for i := 1; i <= w; i++ {
		c.predOff[i] += c.predOff[i-1]
	}
	c.predFill = grow(c.predFill, w)
	copy(c.predFill, c.predOff[:w])
	c.predList = grow(c.predList, int(c.predOff[w]))
	for _, b := range c.order {
		ss, n := b.succs()
		for _, s := range ss[:n] {
			if s != nil {
				c.predList[c.predFill[s.ID]] = b
				c.predFill[s.ID]++
			}
		}
	}
}

// reachable reports whether b is reachable from the entry.
func (c *cfgInfo) reachable(b *Block) bool { return c.seen[b.ID] }

// preds returns b's reachable predecessors. The slice aliases the
// analysis: simplifyCFG rewrites it in place as it merges blocks.
func (c *cfgInfo) preds(b *Block) []*Block {
	return c.predList[c.predOff[b.ID]:c.predOff[b.ID+1]]
}

// dominators computes, by iterative dataflow over the reachable subgraph,
// the set of blocks dominating each reachable block (including the block
// itself). Requires analyze.
func (c *cfgInfo) dominators() {
	w := c.width
	c.words = (w + 63) / 64
	c.dom = grow(c.dom, w*c.words)
	clear(c.dom)
	c.row = grow(c.row, c.words)
	if len(c.order) == 0 {
		return
	}
	entry := c.order[0]
	setBit(c.domRow(entry), entry.ID)
	all := c.row
	clear(all)
	for _, b := range c.order {
		setBit(all, b.ID)
	}
	for _, b := range c.order[1:] {
		copy(c.domRow(b), all)
	}
	inter := c.row // all is no longer needed
	for changed := true; changed; {
		changed = false
		for _, b := range c.order[1:] {
			pr := c.preds(b)
			if len(pr) == 0 {
				clear(inter)
			} else {
				copy(inter, c.domRow(pr[0]))
				for _, p := range pr[1:] {
					for i, d := range c.domRow(p) {
						inter[i] &= d
					}
				}
			}
			setBit(inter, b.ID)
			if row := c.domRow(b); !equalBits(row, inter) {
				copy(row, inter)
				changed = true
			}
		}
	}
}

func (c *cfgInfo) domRow(b *Block) []uint64 {
	return c.dom[b.ID*c.words : (b.ID+1)*c.words]
}

// dominates reports whether a dominates b. Requires dominators.
func (c *cfgInfo) dominates(a, b *Block) bool { return hasBit(c.domRow(b), a.ID) }

func equalBits(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// naturalLoops finds natural loops via back edges (t -> h where h dominates
// t), merging loops sharing a header, in order of their headers' first back
// edge. Requires dominators; the result aliases the analysis.
func (c *cfgInfo) naturalLoops() []loop {
	c.loops = c.loops[:0]
	// at most one loop per reachable header: size the bitset arena up
	// front so no body slice is invalidated by growth
	c.loopBits = grow(c.loopBits, len(c.order)*c.words)
	c.loopOf.reset(c.width)
	for _, b := range c.order {
		ss, n := b.succs()
		for _, s := range ss[:n] {
			if s == nil || !c.dominates(s, b) { // back edge b -> s
				continue
			}
			li, ok := c.loopOf.get(s.ID)
			if !ok {
				li = len(c.loops)
				body := c.loopBits[li*c.words : (li+1)*c.words]
				clear(body)
				setBit(body, s.ID)
				c.loops = append(c.loops, loop{header: s, body: body})
				c.loopOf.set(s.ID, li)
			}
			body := c.loops[li].body
			// collect the loop body by backward walk from the tail
			c.loopStack = c.loopStack[:0]
			if !hasBit(body, b.ID) {
				setBit(body, b.ID)
				c.loopStack = append(c.loopStack, b)
			}
			for len(c.loopStack) > 0 {
				n := c.loopStack[len(c.loopStack)-1]
				c.loopStack = c.loopStack[:len(c.loopStack)-1]
				for _, p := range c.preds(n) {
					if !hasBit(body, p.ID) {
						setBit(body, p.ID)
						c.loopStack = append(c.loopStack, p)
					}
				}
			}
		}
	}
	return c.loops
}
