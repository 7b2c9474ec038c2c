package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "shard", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "refvm", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "minicc", Start: 40, End: 90},
		// a grandchild only reduces its own parent's self time
		{ID: 4, Parent: 3, Name: "instantiate", Start: 50, End: 60},
	}
	got := selfTimes(spans)
	want := map[string]int64{"shard": 30, "refvm": 20, "minicc": 40, "instantiate": 10}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestSelfTimesOverlappingAndOverhangingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to 100..120
		{ID: 3, Parent: 1, Name: "c", Start: 110, End: 150}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "c", Start: 190, End: 260}, // clipped to 190..200
	}
	// children cover 100..150 and 190..200: 60 of the parent's 100
	if got := selfTimes(spans)["p"]; got != 40 {
		t.Errorf("self(p) = %d, want 40", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.id(); id != 0 {
		t.Errorf("nil tracer id = %d", id)
	}
	tr.add(0, "x", 0, now, now) // must not panic
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	start := tr.epoch.Add(time.Millisecond)
	parent := tr.id()
	tr.add(parent, "child", 1, start, start.Add(time.Microsecond))
	tr.record(parent, 0, "parent", 1, start, start.Add(time.Millisecond))
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Parent != parent || got[1].ID != parent || got[0].Start != int64(time.Millisecond) {
		t.Fatalf("spans read back = %+v", got)
	}
	if self := selfTimes(got); self["parent"] != int64(time.Millisecond-time.Microsecond) {
		t.Errorf("self(parent) = %d", self["parent"])
	}
}
