package minicc

import "testing"

// mkCFG builds a function from an adjacency description. Each entry maps a
// block index to its successors: one successor = jump, two = branch (on a
// dummy register), zero = return. Block 0 is the entry.
func mkCFG(t *testing.T, succs [][]int) *Func {
	t.Helper()
	f := &Func{Name: "t"}
	blocks := make([]*Block, len(succs))
	for i := range succs {
		blocks[i] = f.NewBlock("b")
	}
	for i, ss := range succs {
		switch len(ss) {
		case 0:
			blocks[i].Term = Term{Kind: TermRet}
		case 1:
			blocks[i].Term = Term{Kind: TermJmp, To: blocks[ss[0]]}
		case 2:
			blocks[i].Term = Term{Kind: TermBr, Cond: 1, To: blocks[ss[0]], Else: blocks[ss[1]]}
		default:
			t.Fatalf("block %d has %d successors", i, len(ss))
		}
	}
	f.Entry = blocks[0]
	return f
}

// analyzeCFG runs every CFG analysis on f.
func analyzeCFG(f *Func) *cfgInfo {
	c := &cfgInfo{}
	c.analyze(f)
	c.dominators()
	return c
}

// bodySize counts a loop's body blocks.
func bodySize(f *Func, lp loop) int {
	n := 0
	for _, b := range f.Blocks {
		if lp.contains(b) {
			n++
		}
	}
	return n
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> 1 | 2; 1 -> 3; 2 -> 3; 3 ret
	f := mkCFG(t, [][]int{{1, 2}, {3}, {3}, {}})
	c := analyzeCFG(f)
	b := f.Blocks
	if !c.dominates(b[0], b[3]) {
		t.Error("entry must dominate the join")
	}
	if c.dominates(b[1], b[3]) || c.dominates(b[2], b[3]) {
		t.Error("neither branch arm dominates the join")
	}
	if !c.dominates(b[0], b[1]) || !c.dominates(b[0], b[2]) {
		t.Error("entry must dominate both arms")
	}
	for _, blk := range b {
		if !c.dominates(blk, blk) {
			t.Errorf("b%d must dominate itself", blk.ID)
		}
	}
}

func TestDominatorsLoop(t *testing.T) {
	// 0 -> 1 (header); 1 -> 2 | 3; 2 -> 1 (latch); 3 ret
	f := mkCFG(t, [][]int{{1}, {2, 3}, {1}, {}})
	c := analyzeCFG(f)
	b := f.Blocks
	if !c.dominates(b[1], b[2]) {
		t.Error("header must dominate the latch")
	}
	if !c.dominates(b[1], b[3]) {
		t.Error("header must dominate the exit")
	}
	loops := c.naturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	lp := loops[0]
	if lp.header != b[1] {
		t.Errorf("loop header = b%d, want b1", lp.header.ID)
	}
	if !lp.contains(b[1]) || !lp.contains(b[2]) || lp.contains(b[3]) || lp.contains(b[0]) {
		t.Errorf("loop body incorrect: %b", lp.body)
	}
}

func TestNaturalLoopsNested(t *testing.T) {
	// 0 -> 1; 1 -> 2 | 5; 2 -> 3 | 4; 3 -> 2 (inner latch); 4 -> 1 (outer
	// latch); 5 ret
	f := mkCFG(t, [][]int{{1}, {2, 5}, {3, 4}, {2}, {1}, {}})
	loops := analyzeCFG(f).naturalLoops()
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	var inner, outer *loop
	for i, lp := range loops {
		if lp.header == f.Blocks[2] {
			inner = &loops[i]
		}
		if lp.header == f.Blocks[1] {
			outer = &loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("missing inner or outer loop")
	}
	if n := bodySize(f, *inner); n != 2 {
		t.Errorf("inner body = %d blocks, want 2", n)
	}
	// the outer loop contains the inner loop's blocks
	for _, blk := range f.Blocks {
		if inner.contains(blk) && !outer.contains(blk) {
			t.Errorf("outer loop missing inner block b%d", blk.ID)
		}
	}
}

func TestReachableSkipsOrphans(t *testing.T) {
	f := mkCFG(t, [][]int{{1}, {}, {1}}) // block 2 unreachable
	c := analyzeCFG(f)
	if len(c.order) != 2 {
		t.Errorf("reachable = %d blocks, want 2", len(c.order))
	}
	if n := len(c.preds(f.Blocks[1])); n != 1 {
		t.Errorf("preds of b1 = %d, want 1 (orphan must not count)", n)
	}
}

func TestIrreducibleGraphNoNaturalLoop(t *testing.T) {
	// 0 -> 1 | 2; 1 -> 2; 2 -> 1; neither 1 nor 2 dominates the other, so
	// the cycle is irreducible: no back edge, no natural loop
	f := mkCFG(t, [][]int{{1, 2}, {2}, {1}})
	if loops := analyzeCFG(f).naturalLoops(); len(loops) != 0 {
		t.Errorf("irreducible cycle reported %d natural loops", len(loops))
	}
}
