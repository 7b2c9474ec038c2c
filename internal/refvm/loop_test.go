package refvm

import (
	"testing"

	"spe/internal/cc"
	"spe/internal/interp"
)

// TestLoopDetector runs every loop program through Cache.Run (threaded,
// with the loop detector) and through the switch loop (no detector) and
// requires every Result field to match, the verdict to match the
// tree-walker's, and the detector to skip by the expected proof or not
// at all.
func TestLoopDetector(t *testing.T) {
	want := map[string]string{
		"const-state":                   "cycle",
		"seed4-goto":                    "cycle",
		"detached-counter":              "counter",
		"global-counter-in-call":        "counter",
		"counter-breaks":                "none",
		"counter-read-through-pointer":  "none",
		"counter-read-by-struct-copy":   "none",
		"counter-read-by-postfix-value": "none",
		"counter-printed":               "none",
		"counter-stored":                "none",
		"block-local-per-iteration":     "none",
		"counter-overflows":             "counter",
		"counter-overflows-mid-period":  "counter",
		"long-counter-underflows":       "counter",
	}
	if len(want) != len(loopPrograms) {
		t.Fatalf("%d expectations for %d loop programs", len(want), len(loopPrograms))
	}
	const maxSteps = 1_000_000
	ca := NewCache()
	for _, lp := range loopPrograms {
		prog := cc.MustAnalyze(lp.src)
		before := ca.Stats()
		got := ca.Run(prog, nil, Config{MaxSteps: maxSteps})
		st := ca.Stats().Sub(before)
		ref := ca.Run(prog, nil, Config{MaxSteps: maxSteps, Dispatch: DispatchSwitch})
		if g, r := resultFields(got), resultFields(ref); g != r {
			t.Errorf("%s: threaded %s\n switch %s", lp.name, g, r)
		}
		if err := diff(interp.Run(prog, interp.Config{MaxSteps: maxSteps}), got); err != nil {
			t.Errorf("%s: tree-walker divergence: %v", lp.name, err)
		}
		skip := "none"
		switch {
		case st.CycleSkips == 1 && st.CounterSkips == 0:
			skip = "cycle"
		case st.CycleSkips == 0 && st.CounterSkips == 1:
			skip = "counter"
		case st.CycleSkips != 0 || st.CounterSkips != 0:
			skip = "both"
		}
		if skip != want[lp.name] {
			t.Errorf("%s: skipped by %s, want %s", lp.name, skip, want[lp.name])
		}
		switch lp.name {
		case "counter-breaks":
			if !got.Defined() || got.Output != "100000\n" {
				t.Errorf("%s: want a defined run printing 100000, got %s", lp.name, resultFields(got))
			}
		case "counter-overflows", "counter-overflows-mid-period", "long-counter-underflows":
			if got.UB == nil || got.UB.Kind != interp.UBSignedOverflow {
				t.Errorf("%s: want signed-overflow UB, got %s", lp.name, resultFields(got))
			}
		}
	}
}

// TestStoreClearsCounterMark pins the store half of the counter proof: a
// store to a marked counter cell leaves it set, not marked, so the
// verified period fails.
func TestStoreClearsCounterMark(t *testing.T) {
	vm := newVMState()
	vm.reset(compileProgram(cc.MustAnalyze("int main() { return 0; }"), nil), Config{}.withDefaults())
	h := vm.alloc(int32(basicInt), 0)
	vm.objs[h].cells[0] = vCell{val: vm.p.tt.mkInt(1, int32(basicInt)), init: cellCounter}
	vm.store(mkPtr(h, 0, int32(basicInt)), vm.p.tt.mkInt(2, int32(basicInt)), 0)
	if c := vm.objs[h].cells[0]; c.init != cellSet || iOf(c.val) != 2 {
		t.Fatalf("after a store the cell is %+v, want set to 2", c)
	}
}
