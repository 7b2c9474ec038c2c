package fabric

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"spe/internal/campaign"
)

// TestMetricCatalogDocumented keeps docs/OBSERVABILITY.md's metric catalog
// and the live registry in step: every spe_* series a coordinator serves
// (campaign telemetry plus the fabric's own series) must have a catalog
// row, and every series a catalog row names must be registered. A row's
// "`name` / `_suffix`" shorthand names a second series that shares name's
// prefix up to its last underscore.
func TestMetricCatalogDocumented(t *testing.T) {
	tel := campaign.NewTelemetry()
	NewMetrics(tel.Registry()).observeCoordinator(&Coordinator{})
	registered := make(map[string]bool)
	for id := range tel.Registry().Snapshot() {
		registered[strings.SplitN(id, "{", 2)[0]] = true
	}

	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	token := regexp.MustCompile("`([a-z_]+)(\\{[a-z,]*\\})?`")
	documented := make(map[string]bool)
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "| `spe_") {
			continue
		}
		cell := strings.SplitN(line[1:], "|", 2)[0]
		var base string
		for _, m := range token.FindAllStringSubmatch(cell, -1) {
			switch name := m[1]; {
			case strings.HasPrefix(name, "spe_"):
				base = name
				documented[name] = true
			case strings.HasPrefix(name, "_") && base != "":
				documented[base[:strings.LastIndex(base, "_")]+name] = true
			}
		}
	}

	for _, name := range sortedKeys(registered) {
		if !documented[name] {
			t.Errorf("registered series %s has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which nothing registers", name)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
