// Command spebench regenerates the paper's tables and figures (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	spebench [-quick] [-workers N] [-checkpoint path]
//	         [-schedule fifo|coverage|region]
//	         [-dispatch threaded|switch] [-backend-dispatch threaded|switch]
//	         [-paranoid] [-bench-json path]
//	         [-cpuprofile path] [-memprofile path]
//	         [-status-addr host:port] [-progress 30s] [experiment...]
//
// where experiment is any of: table1 table2 table3 table4 fig8 fig9 fig10
// example6 variants backend oracle obs fabric schedule. With no
// arguments, all experiments run in order.
// -workers sizes the campaign engine's worker pool (0 = GOMAXPROCS; the
// tables are identical at any setting), -checkpoint makes campaign
// experiments persist resumable progress, -schedule selects the shard
// dispatch policy (coverage drains novel files first, region scores each
// file's scheduling regions independently; tables are unaffected).
// -dispatch selects the bytecode oracle VM's instruction dispatch engine
// (threaded, the default fused and specialized handler table, or switch,
// the monolithic opcode switch baseline) and -backend-dispatch selects
// the compiled-binary minicc VM's dispatch engine the same way; tables
// are identical under any combination, and the oracle and backend
// experiments measure both engines regardless of the flags. -paranoid
// cross-checks every campaign variant (render+reparse+binding assertion
// of the AST-resident instantiation, a fresh lowering against every
// patched IR template, and the tree-walker against every bytecode
// verdict), and -bench-json makes the variants, backend, and oracle
// experiments write their variants/sec results (BENCH_variants.json,
// BENCH_backend.json, and BENCH_oracle.json in CI); when a single
// invocation runs more than one experiment, the experiment name is
// inserted before the extension so the results don't overwrite each
// other.
// -cpuprofile and -memprofile write pprof profiles covering the whole
// invocation (CPU profile over every experiment run; heap profile at
// exit), so the next bottleneck hunt needs no ad-hoc patches.
// -status-addr serves live campaign telemetry over HTTP for the whole
// invocation (/metrics, /status, /events, /debug/pprof/ — see
// docs/OBSERVABILITY.md) and -progress prints a one-line campaign ticker
// to stderr at the given interval; both are observational only and leave
// every table and bench result byte-identical. The obs experiment
// measures exactly that: telemetry-on vs telemetry-off campaign
// throughput plus report equivalence (BENCH_obs.json in CI). The fabric
// experiment runs the same campaign through a loopback HTTP
// coordinator/worker fabric versus the in-process engine, asserting the
// reports are byte-identical and recording both throughputs
// (BENCH_fabric.json in CI; see docs/DISTRIBUTED.md). The schedule
// experiment runs the same single-file campaign under the fifo, coverage,
// and region dispatch policies, asserting byte-identical reports and
// recording how many variants each policy needs to reach full compiler
// coverage (BENCH_schedule.json in CI; the region scheduler's win comes
// from probing every region of examples/regions/large.c early).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spe/internal/campaign"
	"spe/internal/experiments"
	"spe/internal/obs"
)

func main() {
	// benchMain owns the profiling defers: os.Exit here (after it
	// returns) never truncates a CPU profile or skips the heap snapshot,
	// even when an experiment fails — failed runs are exactly the ones
	// worth profiling.
	os.Exit(benchMain())
}

func benchMain() int {
	quick := flag.Bool("quick", false, "use a reduced scale for a fast run")
	workers := flag.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS); results are identical at any setting")
	checkpoint := flag.String("checkpoint", "", "persist campaign progress to this path (campaign experiments only)")
	schedule := flag.String("schedule", "", "campaign shard dispatch policy: fifo (default), coverage, or region; tables are identical either way")
	dispatch := flag.String("dispatch", "", "bytecode oracle instruction dispatch: threaded (default) or switch; tables are identical either way")
	backendDispatch := flag.String("backend-dispatch", "", "compiled-binary minicc VM instruction dispatch: threaded (default) or switch; tables are identical either way")
	paranoid := flag.Bool("paranoid", false, "cross-check every campaign variant: the AST-resident instantiation (render+reparse+binding assertion), each patched IR template against a fresh lowering, and each bytecode verdict against the tree-walker")
	benchJSON := flag.String("bench-json", "", "write the variants experiment's result to this path as JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this path")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
	statusAddr := flag.String("status-addr", "", "serve live campaign telemetry on this HTTP address (/metrics, /status, /events, /debug/pprof/); results stay byte-identical")
	progress := flag.Duration("progress", 0, "print a one-line campaign progress ticker to stderr at this interval (0 = off)")
	flag.Parse()
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spebench: %v\n", err)
		return 1
	}
	defer stopProfiles()
	// one Telemetry spans every experiment in the invocation: counters
	// accumulate across campaigns, /status tracks the campaign currently
	// running (the obs experiment manages its own private instance)
	var tel *campaign.Telemetry
	if *statusAddr != "" || *progress > 0 {
		tel = campaign.NewTelemetry()
	}
	if *statusAddr != "" {
		srv, err := obs.Serve(*statusAddr, tel.Handler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "spebench: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "spebench: telemetry on http://%s/\n", srv.Addr)
	}
	if *progress > 0 {
		stop := tel.StartProgressTicker(os.Stderr, *progress)
		defer stop()
	}
	scale := experiments.Scale{}
	if *quick {
		scale = experiments.Scale{
			CorpusFiles:    40,
			MaxVariants:    60,
			CoverageFiles:  10,
			CoverageVars:   10,
			CampaignCorpus: 10,
		}
	}
	scale.Workers = *workers
	scale.Schedule = *schedule
	scale.Dispatch = *dispatch
	scale.BackendDispatch = *backendDispatch
	scale.Paranoid = *paranoid
	scale.Telemetry = tel
	which := flag.Args()
	if len(which) == 0 {
		which = []string{"example6", "table1", "table2", "fig8", "table3", "table4", "fig10", "fig9", "generality", "variants", "backend", "oracle", "obs", "fabric", "schedule"}
	}
	for _, name := range which {
		start := time.Now()
		// one checkpoint file per experiment, so consecutive campaigns
		// in a single spebench run don't overwrite each other's state
		if *checkpoint != "" {
			scale.Checkpoint = *checkpoint + "." + name
		}
		// several experiments write a bench-json result (variants,
		// backend); when more than one runs in this invocation, derive a
		// per-experiment path so they don't overwrite each other (a
		// single-experiment run keeps the exact path, which is what CI
		// relies on for its artifact names)
		scale.BenchJSON = *benchJSON
		if *benchJSON != "" && len(which) > 1 {
			scale.BenchJSON = benchJSONFor(*benchJSON, name)
		}
		out, err := run(name, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spebench: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", name, time.Since(start).Seconds(), out)
	}
	return 0
}

// benchJSONFor inserts the experiment name before the path's extension:
// BENCH.json -> BENCH.variants.json.
func benchJSONFor(path, name string) string {
	if ext := filepath.Ext(path); ext != "" {
		return path[:len(path)-len(ext)] + "." + name + ext
	}
	return path + "." + name
}

func run(name string, scale experiments.Scale) (string, error) {
	switch name {
	case "table1":
		return experiments.Table1(scale)
	case "table2":
		return experiments.Table2(scale)
	case "table3":
		return experiments.Table3(scale)
	case "table4":
		out, _, err := experiments.Table4(scale)
		return out, err
	case "fig8":
		return experiments.Figure8(scale)
	case "fig9":
		return experiments.Figure9(scale)
	case "fig10":
		return experiments.Figure10(scale)
	case "example6":
		return experiments.Example6(), nil
	case "generality":
		return experiments.Generality(scale)
	case "variants":
		return experiments.VariantsBench(scale)
	case "backend":
		return experiments.BackendBench(scale)
	case "oracle":
		return experiments.OracleBench(scale)
	case "obs":
		return experiments.ObsBench(scale)
	case "fabric":
		return experiments.FabricBench(scale)
	case "schedule":
		return experiments.ScheduleBench(scale)
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
}
