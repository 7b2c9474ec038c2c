package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestStealShare(t *testing.T) {
	a := parseCPUTicks("cpu  100 0 20 500 1 0 5 10 0 0\ncpu0 1 2 3\n")
	b := parseCPUTicks("cpu  160 0 30 600 1 0 10 85 0 0\n")
	if !a.ok || !b.ok {
		t.Fatal("a well-formed stat line did not parse")
	}
	// busy grew by 60+10+5 = 75 ticks, steal by 75: half the wanted time
	if got := stealShare(a, b); !near(got, 0.5) {
		t.Errorf("stealShare = %v, want 0.5", got)
	}
	if got := stealShare(a, parseCPUTicks("intr 1 2 3\n")); got != 0 {
		t.Errorf("stealShare with an unreadable line = %v, want 0", got)
	}
	if got := stealShare(b, a); got != 0 {
		t.Errorf("stealShare backwards = %v, want 0", got)
	}
}
