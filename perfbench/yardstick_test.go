package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestYardstickTasksDoFixedWork(t *testing.T) {
	for _, task := range yardstickTasks {
		a, b := task.work(), task.work()
		if a <= 0 || a != b {
			t.Errorf("%s returned %d, then %d", task.name, a, b)
		}
	}
}

func TestYardstickChildPrintsAReading(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--yardstick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var r yardstickReading
	if err := json.Unmarshal(out.Bytes(), &r); err != nil || r.CPU <= 0 {
		t.Errorf("reading %q: %v", out.String(), err)
	}
}

func TestHostSpeed(t *testing.T) {
	ref := yardstickRef.Seconds()
	for _, c := range []struct {
		readings []float64 // as multiples of the reference
		want     float64
	}{
		{[]float64{1}, 1},
		{[]float64{2, 2}, 0.5},
		{[]float64{0.5, 9, 0.5}, 2}, // one slow reading does not move the median
		{nil, 0},
	} {
		readings := make([]float64, len(c.readings))
		for i, x := range c.readings {
			readings[i] = x * ref
		}
		if got := hostSpeed(readings); !near(got, c.want) {
			t.Errorf("hostSpeed(%v x ref) = %v, want %v", c.readings, got, c.want)
		}
	}
}
