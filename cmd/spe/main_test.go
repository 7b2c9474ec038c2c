package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCampaignBudgetFlags pins how -threshold and -variants combine: a
// threshold of 0 and a non-positive per-file budget are refused instead
// of silently testing one variant per file, -threshold skips a file whose
// canonical count exceeds it, and -threshold -1 lifts the cap.
func TestCampaignBudgetFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-threshold", "0"},
		{"-threshold", "-2"},
		{"-threshold", "-1", "-variants", "0"},
		{"-variants", "-1"},
	} {
		if err := campaignMain(args); err == nil {
			t.Fatalf("campaign %s: no error", strings.Join(args, " "))
		}
	}

	src := filepath.Join(t.TempDir(), "a.c")
	if err := os.WriteFile(src, []byte("int main() { int a = 1; int b = 2; int c = a + b; return c - a - b; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		threshold, want string
	}{
		{"2", "campaign: 1 files (1 skipped), 0 variants"},
		{"-1", "campaign: 1 files (0 skipped), 4 variants"},
	} {
		out := filepath.Join(t.TempDir(), "report.txt")
		f, err := os.Create(out)
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = f
		err = campaignMain([]string{"-workers", "1", "-threshold", tc.threshold, "-variants", "3", src})
		os.Stdout = stdout
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(rep), tc.want) {
			t.Fatalf("-threshold %s: report starts %q, want %q", tc.threshold, strings.SplitN(string(rep), "\n", 2)[0], tc.want)
		}
	}
}
