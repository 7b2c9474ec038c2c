// Command spe is the skeletal-program-enumeration tool: it derives the
// skeleton of a C file, reports its statistics, counts its enumeration sets
// under the naive, paper, and canonical algorithms, and enumerates
// non-alpha-equivalent variants.
//
// Usage:
//
//	spe stats     file.c             report Table-2 style statistics
//	spe skeleton  file.c             print the skeleton with numbered holes
//	spe count     file.c             print naive/paper/canonical counts
//	spe canon     file.c             print the alpha-canonical form
//	spe enumerate [-n N] [-naive] [-inter] file.c
//	                                 print variants (default: canonical,
//	                                 intra-procedural, all of them)
//	spe campaign [-workers N] [-checkpoint path] [-variants N]
//	             [-versions list] [-schedule fifo|coverage|region]
//	             [-curve] [-reduce] [-inter]
//	             [-dispatch threaded|switch] [-backend-dispatch threaded|switch]
//	             [-paranoid] [-status-addr host:port]
//	             [-progress 30s] [-cpuprofile path] [-memprofile path]
//	             [-serve host:port | -connect host:port]
//	             [-lease-timeout 30s] [-max-retries N]
//	             [file.c ...]
//	                                 run a parallel differential-testing
//	                                 campaign (default corpus: the bundled
//	                                 seed programs); with -checkpoint, an
//	                                 existing checkpoint is resumed;
//	                                 -schedule=coverage dispatches shards
//	                                 by expected coverage novelty,
//	                                 -schedule=region scores each file's
//	                                 scheduling regions (contiguous
//	                                 hole-group ranges of its walk)
//	                                 independently and drains the novel
//	                                 ones first (both leave the report
//	                                 byte-identical to fifo order);
//	                                 variants are instantiated in place on
//	                                 AST templates and executed on pooled
//	                                 backends (skeleton-compiled bytecode
//	                                 reference oracle, reusable interpreter
//	                                 machines, skeleton-keyed compiler IR
//	                                 templates) in one batched walk per
//	                                 shard — -dispatch=switch restores the
//	                                 bytecode VM's monolithic opcode switch
//	                                 (the default threaded engine
//	                                 dispatches through a fused,
//	                                 specialized handler table),
//	                                 -backend-dispatch=switch restores the
//	                                 compiled-binary VM's monolithic opcode
//	                                 switch (the default threaded engine
//	                                 dispatches the fused minicc IR through
//	                                 a handler table), and -paranoid
//	                                 cross-checks every instantiation
//	                                 against a fresh render+reparse, every
//	                                 patched IR template against a fresh
//	                                 lowering, and every bytecode oracle
//	                                 verdict against the tree-walker (all
//	                                 three keep reports byte-identical);
//	                                 -status-addr serves live telemetry
//	                                 over HTTP (/metrics in
//	                                 Prometheus text format, /status as
//	                                 JSON, /events as an SSE stream of
//	                                 findings and coverage points, and
//	                                 /debug/pprof/), -progress prints a
//	                                 one-line ticker to stderr at the given
//	                                 interval, and -cpuprofile/-memprofile
//	                                 write pprof profiles of the campaign —
//	                                 all of them observational only: the
//	                                 report on stdout stays byte-identical
//	                                 with or without them (see
//	                                 docs/OBSERVABILITY.md); -serve runs
//	                                 this process as a fabric coordinator
//	                                 leasing shard tasks over HTTP to
//	                                 -connect worker processes (the merged
//	                                 report stays byte-identical to an
//	                                 in-process run under any worker fleet,
//	                                 crash, or retry — see
//	                                 docs/DISTRIBUTED.md), with
//	                                 -lease-timeout bounding how long a
//	                                 worker holds a shard and -max-retries
//	                                 bounding re-dispatches before the
//	                                 campaign fails; SIGINT checkpoints
//	                                 merged progress (with -checkpoint) and
//	                                 exits cleanly in every mode
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spe/internal/alpha"
	"spe/internal/campaign"
	"spe/internal/cc"
	"spe/internal/corpus"
	"spe/internal/fabric"
	"spe/internal/obs"
	"spe/internal/skeleton"
	"spe/internal/spe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd == "campaign" {
		runCampaign(os.Args[2:])
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	n := fs.Int("n", 0, "maximum number of variants to print (0 = all)")
	naive := fs.Bool("naive", false, "use naive enumeration instead of canonical")
	inter := fs.Bool("inter", false, "inter-procedural granularity")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		usage()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	f, err := cc.Parse(string(data))
	if err != nil {
		fatal(err)
	}
	prog, err := cc.Analyze(f)
	if err != nil {
		fatal(err)
	}
	sk, err := skeleton.Build(prog)
	if err != nil {
		fatal(err)
	}
	gran := spe.Intra
	if *inter {
		gran = spe.Inter
	}

	switch cmd {
	case "stats":
		st := sk.ComputeStats()
		fmt.Printf("holes:      %d\n", st.Holes)
		fmt.Printf("scopes:     %d\n", st.Scopes)
		fmt.Printf("functions:  %d\n", st.Funcs)
		fmt.Printf("types:      %d\n", st.Types)
		fmt.Printf("vars/hole:  %.2f\n", st.Vars)
		fmt.Printf("groups:     %d\n", len(sk.Groups))
	case "skeleton":
		fmt.Println(sk.String())
	case "canon":
		fmt.Print(alpha.CanonicalizeSkeleton(sk))
	case "count":
		for _, m := range []spe.Mode{spe.ModeNaive, spe.ModePaper, spe.ModeCanonical} {
			c := spe.Count(sk, spe.Options{Mode: m, Granularity: gran})
			fmt.Printf("%-10s %s\n", m.String()+":", c.String())
		}
	case "enumerate":
		mode := spe.ModeCanonical
		if *naive {
			mode = spe.ModeNaive
		}
		count, err := spe.Enumerate(sk, spe.Options{Mode: mode, Granularity: gran}, func(v spe.Variant) bool {
			fmt.Printf("/* variant %d */\n%s\n", v.Index+1, v.Source)
			return *n == 0 || v.Index+1 < *n
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "enumerated %d variants\n", count)
	default:
		usage()
	}
}

// runCampaign drives the sharded campaign engine from the command line.
// An existing -checkpoint file is resumed; otherwise a fresh campaign
// starts (and, with -checkpoint set, persists its progress there).
// Errors funnel through campaignMain's return value rather than fatal so
// the telemetry server, progress ticker, and pprof profiles always wind
// down cleanly (a truncated CPU profile is worthless).
func runCampaign(args []string) {
	if err := campaignMain(args); err != nil {
		fatal(err)
	}
}

func campaignMain(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); any value yields identical reports")
	checkpoint := fs.String("checkpoint", "", "periodically persist campaign state to this path; resumed if it exists")
	variants := fs.Int("variants", 200, "maximum enumerated variants tested per file")
	versions := fs.String("versions", "trunk", "comma-separated compiler versions under test")
	schedule := fs.String("schedule", campaign.ScheduleFIFO, "shard dispatch policy: fifo (enumeration order), coverage (drain novel files first), or region (score each file's regions independently); same final report either way")
	curve := fs.Bool("curve", false, "record and print the coverage-over-time curve to stderr (under fifo this enables coverage collection)")
	reduce := fs.Bool("reduce", false, "delta-debug each finding's sample test case")
	inter := fs.Bool("inter", false, "inter-procedural granularity")
	dispatch := fs.String("dispatch", campaign.DispatchThreaded, "bytecode oracle instruction dispatch: threaded (fused, specialized handler table) or switch (monolithic opcode switch); reports are byte-identical either way")
	backendDispatch := fs.String("backend-dispatch", campaign.BackendDispatchThreaded, "compiled-binary VM instruction dispatch: threaded (fused handler table) or switch (monolithic opcode switch); reports are byte-identical either way")
	paranoid := fs.Bool("paranoid", false, "cross-check every AST-instantiated variant against a fresh render+reparse, every patched IR template against a fresh lowering, and every bytecode oracle verdict against the tree-walking interpreter (debug mode; slower)")
	statusAddr := fs.String("status-addr", "", "serve live telemetry on this HTTP address (/metrics, /status, /events, /debug/pprof/); the report stays byte-identical")
	progress := fs.Duration("progress", 0, "print a one-line progress ticker to stderr at this interval (0 = off)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this path")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
	serve := fs.String("serve", "", "run as a fabric coordinator on this HTTP address, leasing shard tasks to -connect workers instead of executing locally (same report as an in-process run)")
	connect := fs.String("connect", "", "run as a fabric worker against the coordinator at this address; the campaign config comes from the coordinator, so only -workers and the telemetry flags apply")
	leaseTimeout := fs.Duration("lease-timeout", 30*time.Second, "(with -serve) how long a worker holds a leased shard before it is re-leased elsewhere")
	maxRetries := fs.Int("max-retries", 3, "(with -serve) how many re-dispatches one shard may consume after expiries or worker failures before the campaign fails (-1 = unlimited)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *serve != "" && *connect != "" {
		return fmt.Errorf("-serve and -connect are mutually exclusive (one process is either the coordinator or a worker)")
	}
	// SIGINT/SIGTERM cancel the campaign context: the engine (or fabric
	// coordinator) checkpoints its merged prefix and exits cleanly instead
	// of abandoning in-flight progress
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	// telemetry is observational only: the campaign runs identically (and
	// reports byte-identically) whether tel is attached or nil
	var tel *campaign.Telemetry
	if *statusAddr != "" || *progress > 0 {
		tel = campaign.NewTelemetry()
	}
	if *statusAddr != "" {
		srv, err := obs.Serve(*statusAddr, tel.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "spe: telemetry on http://%s/ (metrics, status, events, debug/pprof)\n", srv.Addr)
	}
	if *progress > 0 {
		stop := tel.StartProgressTicker(os.Stderr, *progress)
		defer stop()
	}
	if *connect != "" {
		// worker mode: the campaign (corpus, settings, checkpointing) is
		// the coordinator's; this process only drains shard leases
		if fs.NArg() > 0 || *checkpoint != "" {
			return fmt.Errorf("-connect workers take no corpus files or -checkpoint (the coordinator owns the campaign)")
		}
		host, _ := os.Hostname()
		w := &fabric.Worker{
			Transport:   fabric.Dial(*connect),
			ID:          fmt.Sprintf("%s-%d", host, os.Getpid()),
			Parallelism: workerParallelism(*workers),
		}
		fmt.Fprintf(os.Stderr, "spe: worker %s draining shards from %s\n", w.ID, *connect)
		return w.Run(ctx)
	}
	if *checkpoint != "" {
		_, err := os.Stat(*checkpoint)
		switch {
		case err == nil:
			// the checkpoint embeds the whole campaign (corpus and
			// settings); explicitly passed files would be silently
			// ignored, so reject the combination instead
			if fs.NArg() > 0 {
				return fmt.Errorf("checkpoint %s already exists; remove it or drop the corpus file arguments (a resume replays the checkpointed corpus and settings)", *checkpoint)
			}
			fmt.Fprintf(os.Stderr, "spe: resuming campaign from %s (flags other than -checkpoint and the telemetry flags are taken from the checkpoint)\n", *checkpoint)
			var rep *campaign.Report
			var err error
			if *serve != "" {
				core, coreErr := campaign.ResumeRemoteEngine(*checkpoint, tel)
				if coreErr != nil {
					return coreErr
				}
				rep, err = serveCoordinator(ctx, core, tel, *serve, *leaseTimeout, *maxRetries)
			} else {
				rep, err = campaign.ResumeTelemetry(ctx, *checkpoint, tel)
			}
			if err != nil {
				return interruptedErr(err, *checkpoint)
			}
			if *curve {
				fmt.Fprint(os.Stderr, rep.FormatCoverageCurve())
			}
			fmt.Print(rep.Format())
			return nil
		case !os.IsNotExist(err):
			return err // unreadable checkpoint: don't silently overwrite it
		}
	}
	var progs []string
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		progs = append(progs, string(data))
	}
	if len(progs) == 0 {
		progs = corpus.Seeds()
	}
	gran := spe.Intra
	if *inter {
		gran = spe.Inter
	}
	cfg := campaign.Config{
		Corpus:             progs,
		Versions:           strings.Split(*versions, ","),
		MaxVariantsPerFile: *variants,
		Granularity:        gran,
		ReduceTestCases:    *reduce,
		Workers:            *workers,
		CheckpointPath:     *checkpoint,
		Schedule:           *schedule,
		CoverageCurve:      *curve,
		Dispatch:           *dispatch,
		BackendDispatch:    *backendDispatch,
		Paranoid:           *paranoid,
		Telemetry:          tel,
	}
	var rep *campaign.Report
	if *serve != "" {
		core, err := campaign.NewRemoteEngine(cfg)
		if err != nil {
			return err
		}
		rep, err = serveCoordinator(ctx, core, tel, *serve, *leaseTimeout, *maxRetries)
		if err != nil {
			return interruptedErr(err, *checkpoint)
		}
	} else {
		var err error
		rep, err = campaign.RunContext(ctx, cfg)
		if err != nil {
			return interruptedErr(err, *checkpoint)
		}
	}
	if *curve {
		fmt.Fprint(os.Stderr, rep.FormatCoverageCurve())
	}
	fmt.Print(rep.Format())
	return nil
}

// serveCoordinator runs the fabric coordinator: it binds addr, leases
// the campaign's shard tasks to -connect workers, and waits for the
// merged report (or a failure / SIGINT, both of which checkpoint first).
func serveCoordinator(ctx context.Context, core *campaign.RemoteEngine, tel *campaign.Telemetry, addr string, leaseTimeout time.Duration, maxRetries int) (*campaign.Report, error) {
	var m *fabric.Metrics
	if tel != nil {
		m = fabric.NewMetrics(tel.Registry())
	}
	coord := fabric.NewCoordinator(core, fabric.Options{LeaseTimeout: leaseTimeout, MaxRetries: maxRetries, Metrics: m})
	srv, err := obs.Serve(addr, coord.Handler())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "spe: coordinator on http://%s/ (campaign %s, %d of %d shard tasks remaining)\n",
		srv.Addr, coord.ID(), core.TotalTasks()-core.MergedTasks(), core.TotalTasks())
	return coord.Wait(ctx)
}

// workerParallelism maps the -workers flag onto a fabric worker's lease
// concurrency (0 keeps the in-process convention: one slot per CPU).
func workerParallelism(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// interruptedErr dresses a SIGINT-canceled campaign in its operational
// meaning: the merged prefix is on disk when a checkpoint path is set.
func interruptedErr(err error, checkpoint string) error {
	if errors.Is(err, context.Canceled) && checkpoint != "" {
		return fmt.Errorf("campaign interrupted; merged progress checkpointed to %s (rerun with -checkpoint to resume)", checkpoint)
	}
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: spe {stats|skeleton|count|canon|enumerate|campaign} [-n N] [-naive] [-inter] file.c")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spe:", err)
	os.Exit(1)
}
