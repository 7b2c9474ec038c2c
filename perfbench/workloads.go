package main

import (
	"spe/internal/campaign"
	"spe/internal/corpus"
	"spe/internal/minicc"
)

// defaultCorpusSeed is the generator seed of the testsuite corpus.
// holdoutCorpusSeed is the corpus a performance claim is re-checked on
// (--corpus-seed), because it was not looked at while the change was
// written.
const (
	defaultCorpusSeed = 20170618
	holdoutCorpusSeed = 20170619
)

// workload is one named set of campaign inputs.
type workload struct {
	name string
	why  string
	// fabric runs the measured campaigns through a loopback coordinator
	// and one fabric.Worker instead of campaign.Run.
	fabric bool
	// unlisted says why BENCHMARK.json leaves the workload out; it still
	// runs by name. Empty for a listed workload.
	unlisted string
	// config returns the campaign configuration without worker count or
	// checkpoint path.
	config func(corpusSeed int64) campaign.Config
}

var workloads = []workload{
	{
		name: "testsuite",
		why:  "default campaign on a generated corpus; the only one where spe/partition set-up and spe.Space pool rebuilds cost seconds",
		unlisted: "too unsteady on a shared 2-vCPU host: its campaigns spend over half their time in set-up, " +
			"so a run holds two or three of each kind, and over ten runs its spreads after host-speed scaling " +
			"were 0.09-0.16, against at most 0.10 on the listed workloads",
		config: func(corpusSeed int64) campaign.Config {
			return campaign.Config{
				Corpus:             corpus.Generate(corpus.Config{N: 60, Seed: corpusSeed}),
				Versions:           []string{"trunk"},
				Threshold:          -1,
				MaxVariantsPerFile: 25,
			}
		},
	},
	{
		name: "releases",
		why:  "paper seeds across all four releases: refvm step-limited runs and classify dominate, set-up is near zero",
		config: func(int64) campaign.Config {
			return campaign.Config{
				Corpus:             corpus.Seeds(),
				Versions:           append([]string(nil), minicc.Versions...),
				Threshold:          -1,
				MaxVariantsPerFile: 100,
			}
		},
	},
	{
		name:   "regions-fabric",
		why:    "region-scheduled campaign over a loopback fabric: leases, JSON, merge, checkpoints and minicc passes on the critical path",
		fabric: true,
		config: func(int64) campaign.Config {
			return campaign.Config{
				Corpus:             []string{corpus.RegionsSeed()},
				Versions:           []string{"trunk"},
				Threshold:          -1,
				MaxVariantsPerFile: 600,
				Schedule:           campaign.ScheduleRegion,
				ShardSize:          4,
				CheckpointEvery:    8,
			}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
