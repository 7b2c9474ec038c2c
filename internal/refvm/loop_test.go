package refvm

import (
	"math"
	"testing"

	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/interp"
)

// TestLoopDetector runs every loop program through Cache.Run (threaded,
// with the loop detector) and through the switch loop (no detector) and
// requires every Result field to match, the verdict to match the
// tree-walker's, and the detector to skip by the expected proof or not
// at all.
func TestLoopDetector(t *testing.T) {
	want := map[string]string{
		"const-state":                         "cycle",
		"seed4-goto":                          "cycle",
		"detached-counter":                    "counter",
		"global-counter-in-call":              "counter",
		"counter-breaks":                      "counter",
		"counter-read-through-pointer":        "none",
		"counter-read-by-struct-copy":         "none",
		"counter-read-by-postfix-value":       "none",
		"counter-printed":                     "none",
		"counter-stored":                      "counter",
		"block-local-per-iteration":           "none",
		"counter-overflows":                   "counter",
		"counter-overflows-mid-period":        "counter",
		"long-counter-underflows":             "counter",
		"seed4-goto-self-update":              "counter",
		"seed13-invariant-sum":                "counter",
		"seed14-continue-self-update":         "counter",
		"self-update-until-bound":             "counter",
		"long-self-update-overflows":          "counter",
		"int-self-update-underflows":          "counter",
		"self-update-margin":                  "counter",
		"long-self-update-down-to-bound":      "counter",
		"counter-equal-now":                   "none",
		"self-update-reads-counter-twice":     "none",
		"compound-update-reads-counter-twice": "none",
		"counter-copied-after-self-update":    "none",
		"self-update-through-pointer":         "none",
		"self-update-widens":                  "none",
		"counter-compared-unsigned":           "none",
		"update-from-other-counter":           "none",
		"self-update-constant-first":          "counter",
		"update-adds-other-counter":           "none",
		"update-from-other-counter-right":     "none",
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
		case "self-update-until-bound":
			if !got.Defined() || got.Output != "250002\n" {
				t.Errorf("%s: want a defined run printing 250002, got %s", lp.name, resultFields(got))
			}
		case "long-self-update-down-to-bound":
			if !got.Defined() || got.Output != "8999799995\n" {
				t.Errorf("%s: want a defined run printing 8999799995, got %s", lp.name, resultFields(got))
			}
		case "counter-equal-now":
			if !got.Defined() || got.Output != "50000\n" {
				t.Errorf("%s: want a defined run printing 50000, got %s", lp.name, resultFields(got))
			}
		case "counter-compared-unsigned":
			if !got.Defined() || got.Output != "0\n" {
				t.Errorf("%s: want a defined run printing 0, got %s", lp.name, resultFields(got))
			}
		case "counter-overflows", "counter-overflows-mid-period", "long-counter-underflows",
			"long-self-update-overflows", "int-self-update-underflows", "self-update-margin":
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

// TestCmpRoom checks cmpRoom against stepping the comparison period by
// period, on small values and at the ends of the int64 range.
func TestCmpRoom(t *testing.T) {
	const horizon = 40
	check := func(op int32, w, c, d int64) {
		t.Helper()
		want := int64(math.MaxInt64)
		now := intCompare(op, mkLong(w), mkLong(c))
		for j := int64(1); j <= horizon; j++ {
			if intCompare(op, mkLong(w+j*d), mkLong(c)) != now {
				want = j - 1
				break
			}
		}
		got := cmpRoom(op, w, c, d)
		if want == math.MaxInt64 && got >= horizon || got == want {
			return
		}
		t.Errorf("cmpRoom(%s, w=%d, c=%d, d=%d) = %d, want %d", binopNames[op], w, c, d, got, want)
	}
	for op := bopEq; op <= bopGe; op++ {
		for w := int64(-7); w <= 7; w++ {
			for c := int64(-7); c <= 7; c++ {
				for d := int64(-4); d <= 4; d++ {
					check(op, w, c, d)
				}
			}
		}
		// values far apart at the ends of the range: no flip within the
		// horizon, and no overflow in the distance
		for _, v := range [][3]int64{
			{math.MinInt64, math.MaxInt64, 1},
			{math.MaxInt64 - 100, math.MinInt64, -1 << 62},
			{math.MinInt64 + 3, math.MinInt64, -1},
			{math.MaxInt64 - 6, math.MaxInt64, 3},
		} {
			w, c, d := v[0], v[1], v[2]
			if got := cmpRoom(op, w, c, d); got < 0 {
				t.Errorf("cmpRoom(%s, w=%d, c=%d, d=%d) = %d", binopNames[op], w, c, d, got)
			}
		}
	}
}

func mkLong(v int64) Value { return Value{Kind: kInt, Bits: uint64(v), TIdx: basicLong} }

// TestSeedWalkLimitsCutShort requires the loop detector to cut short
// every step-limited run of the paper seeds' walk at the campaign's
// 500 000-step budget (TestResultsGolden pins that there are 153).
func TestSeedWalkLimitsCutShort(t *testing.T) {
	ca := NewCache()
	limited, cut := 0, 0
	last := ca.Stats()
	for fi, src := range corpus.Seeds() {
		goldenWalk(t, ca, src, 100, Config{MaxSteps: 500_000}, func(rank int64, res *interp.Result) {
			st := ca.Stats()
			d := st.Sub(last)
			last = st
			if res.Limit == nil {
				return
			}
			limited++
			if d.CycleSkips+d.CounterSkips == 1 {
				cut++
			} else {
				t.Errorf("seed file %d variant %d runs all %d steps", fi, rank, res.Steps)
			}
		})
	}
	if limited != 153 || cut != limited {
		t.Errorf("%d of %d step-limited runs cut short, want all of 153", cut, limited)
	}
}
