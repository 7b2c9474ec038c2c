// Bughunt: a miniature version of the paper's §5.3 campaign — enumerate
// skeletons of the handwritten paper-figure seeds, filter undefined
// behavior with the reference interpreter, differential-test the seeded
// trunk compiler at -O0..-O3, and print the deduplicated findings.
//
// Run with: go run ./examples/bughunt
package main

import (
	"fmt"

	"spe/internal/campaign"
	"spe/internal/corpus"
	"spe/internal/report"
)

func main() {
	fmt.Println("hunting bugs in minicc-trunk with skeletons from the paper's figures...")
	rep, err := campaign.Run(campaign.Config{
		Corpus:             corpus.Seeds(),
		Versions:           []string{"trunk"},
		MaxVariantsPerFile: 300,
		ReduceTestCases:    true, // delta-debug each finding before "filing"
	})
	if err != nil {
		panic(err)
	}

	t := &report.Table{
		Title:  "Findings",
		Header: []string{"Bug", "Kind", "Component", "Prio", "Opt levels", "Hits", "Signature"},
	}
	for _, fd := range rep.Findings {
		opts := ""
		for _, o := range fd.OptLevels {
			opts += fmt.Sprintf("-O%d ", o)
		}
		prio := ""
		if fd.Priority > 0 {
			prio = fmt.Sprintf("P%d", fd.Priority)
		}
		sig := fd.Signature
		if len(sig) > 60 {
			sig = sig[:57] + "..."
		}
		t.AddRow(fd.BugID, fd.Kind.String(), fd.Component, prio, opts,
			fmt.Sprint(fd.Occurrences), sig)
	}
	fmt.Println(t)
	fmt.Printf("files: %d   variants: %d (clean %d, UB-filtered %d)   executions: %d\n",
		rep.Stats.Files, rep.Stats.Variants, rep.Stats.VariantsClean,
		rep.Stats.VariantsUB, rep.Stats.Executions)
	fmt.Printf("findings: %d crash, %d wrong-code, %d performance\n",
		rep.Stats.CrashFindings, rep.Stats.WrongFindings, rep.Stats.PerfFindings)

	// show one reduced test case, like the paper's bug reports
	for _, fd := range rep.Findings {
		if fd.BugID == "69801" {
			fmt.Printf("\nsample test case for bug %s (%s):\n%s", fd.BugID, fd.Signature, fd.TestCase)
			break
		}
	}
}
