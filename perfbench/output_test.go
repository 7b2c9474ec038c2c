package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// lastResult decodes the last non-empty line of a run's standard output
// the way a caller of the benchmark reads it: one JSON object with no
// keys beyond the result's.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

func TestResultLineCarriesEveryCatalogMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		values := map[string]float64{}
		for i, d := range defs {
			values[d.Name] = float64(i) + 0.125
		}
		res := result{Correct: true, Attempted: 3, Metrics: fill(defs, values)}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(line, &top); err != nil {
			t.Fatal(err)
		}
		if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
			t.Fatalf("result keys = %s", line)
		}
		got := lastResult(t, "workload x: human-readable lines come first\n\n"+string(line)+"\n")
		if len(got.Metrics) != len(defs) || !got.Correct || got.Attempted != 3 {
			t.Fatalf("parsed %+v, want %d metrics", got, len(defs))
		}
		for i, d := range defs {
			m := got.Metrics[d.Name]
			if m.Unit != d.Unit || m.Value != float64(i)+0.125 {
				t.Errorf("%s parsed as %+v", d.Name, m)
			}
		}
	}
}

func TestUnknownWorkloadIsRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}
