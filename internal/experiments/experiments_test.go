package experiments

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyScale keeps the smoke tests fast.
var tinyScale = Scale{
	CorpusFiles:    12,
	MaxVariants:    30,
	CoverageFiles:  6,
	CoverageVars:   6,
	CampaignCorpus: 4,
}

func TestTable1Smoke(t *testing.T) {
	out, err := Table1(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Naive", "Our", "orders of magnitude"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Smoke(t *testing.T) {
	out, err := Table2(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#Holes") || !strings.Contains(out, "Original") {
		t.Errorf("Table2 malformed:\n%s", out)
	}
}

func TestFigure8Smoke(t *testing.T) {
	out, err := Figure8(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 8(a)") || !strings.Contains(out, "Figure 8(b)") {
		t.Errorf("Figure8 malformed:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	out, rep, err := Table4(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "minicc-trunk") {
		t.Errorf("Table4 malformed:\n%s", out)
	}
	if len(rep.Findings) == 0 {
		t.Error("trunk campaign found nothing")
	}
}

func TestFigure9Smoke(t *testing.T) {
	out, err := Figure9(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SPE", "PM-10", "PM-30", "Baseline coverage"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure9 missing %q:\n%s", want, out)
		}
	}
}

func TestExample6Output(t *testing.T) {
	out := Example6()
	for _, want := range []string{"128", "36", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("Example6 missing %q:\n%s", want, out)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus(tinyScale)
	b := Corpus(tinyScale)
	if len(a) != len(b) {
		t.Fatal("corpus size varies")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestOracleBenchSmoke(t *testing.T) {
	scale := tinyScale
	scale.BenchJSON = t.TempDir() + "/BENCH_oracle.json"
	scale.Paranoid = true
	out, err := OracleBench(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bytecode", "speedup", "byte-identical: true", "paranoid cross-check: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("OracleBench missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(scale.BenchJSON)
	if err != nil {
		t.Fatalf("BENCH_oracle.json not written: %v", err)
	}
	var res OracleBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("BENCH_oracle.json malformed: %v", err)
	}
	if !res.ReportsIdentical || !res.ParanoidChecked {
		t.Errorf("oracle bench result not verified: %+v", res)
	}
	if res.BytecodeVPS <= 0 || res.SwitchVPS <= 0 {
		t.Errorf("oracle bench recorded no throughput: %+v", res)
	}
}
