// Coverage: the paper's Figure 9 experiment in miniature — compare
// compiler coverage achieved by SPE enumeration against Orion-style
// statement-deletion mutation (PM-10/20/30), over the same seed corpus.
//
// Run with: go run ./examples/coverage
package main

import (
	"fmt"

	"spe/internal/corpus"
	"spe/internal/experiments"
)

func main() {
	seeds := corpus.Seeds()
	seeds = append(seeds, corpus.Generate(corpus.Config{N: 10, Seed: 99})...)
	fmt.Printf("measuring minicc coverage over %d seed programs...\n\n", len(seeds))

	rep, err := experiments.CoverageExperiment(experiments.CoverageConfig{
		Corpus:          seeds,
		VariantsPerFile: 20,
		PMLevels:        []int{10, 20, 30},
		PMVariants:      20,
		Seed:            7,
	})
	if err != nil {
		panic(err)
	}

	fmt.Printf("baseline (original programs): function %.1f%%, line %.1f%%\n",
		rep.Baseline.Function*100, rep.Baseline.Line*100)
	spe := rep.SPE.Improvement(rep.Baseline)
	fmt.Printf("SPE improvement:   function +%.2f pts, line +%.2f pts\n", spe.Function, spe.Line)
	for _, x := range []int{10, 20, 30} {
		pm := rep.PM[x].Improvement(rep.Baseline)
		fmt.Printf("PM-%-2d improvement: function +%.2f pts, line +%.2f pts\n", x, pm.Function, pm.Line)
	}
	fmt.Println("\n(paper Figure 9: SPE ~5%/2.4% improvements vs <1% for mutation)")
}
