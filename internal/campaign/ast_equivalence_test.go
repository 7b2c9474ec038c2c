package campaign

import (
	"context"
	"strings"
	"testing"

	"spe/internal/corpus"
)

// TestParanoidCrossCheckPasses runs the campaign with the -paranoid
// render+reparse cross-check asserting the instantiation invariants on
// every variant; the report must also stay byte-identical.
func TestParanoidCrossCheckPasses(t *testing.T) {
	base := Config{
		Corpus:             corpus.Seeds()[:4],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 60,
		Workers:            4,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	paranoid := base
	paranoid.Paranoid = true
	rep, err := Run(paranoid)
	if err != nil {
		t.Fatalf("paranoid campaign failed the cross-check: %v", err)
	}
	if rep.Format() != plain.Format() {
		t.Errorf("paranoid report diverges:\n--- paranoid ---\n%s--- plain ---\n%s", rep.Format(), plain.Format())
	}
}

// TestLazyRenderOnlyForSymptomaticVariants asserts the hot path's lazy
// source rendering: symptom-free variants carry no source text back to the
// aggregator.
func TestLazyRenderOnlyForSymptomaticVariants(t *testing.T) {
	cfg := Config{
		Corpus:             corpus.Seeds()[:2],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 40,
	}
	cfg = cfg.withDefaults()
	all, err := buildAllTasks(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sawSymptomless := false
	for _, tk := range all {
		r := runTask(context.Background(), cfg, tk)
		if r.err != nil {
			t.Fatal(r.err)
		}
		for i := range r.variants {
			vr := &r.variants[i]
			if len(vr.symptoms) > 0 && vr.src == "" {
				t.Fatal("symptomatic variant has no rendered source")
			}
			if len(vr.symptoms) == 0 && vr.src != "" {
				t.Fatal("symptom-free variant paid for a render")
			}
			if len(vr.symptoms) == 0 && vr.src == "" {
				sawSymptomless = true
			}
		}
	}
	if !sawSymptomless {
		t.Error("no symptom-free variant observed; laziness test is vacuous")
	}
}

// TestParanoidReportMentionsNothing ensures paranoid mode is pure checking:
// the Config differences must not leak into the formatted report body
// (Format prints stats, plans, and findings only).
func TestParanoidReportMentionsNothing(t *testing.T) {
	cfg := Config{
		Corpus:             corpus.Seeds()[:2],
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 20,
		Paranoid:           true,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Format(), "paranoid") {
		t.Error("paranoid flag leaked into the report text")
	}
}
