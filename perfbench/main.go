// Command perfbench is the repository's benchmark. It runs one named
// campaign workload through the campaign's public API, checks every
// report against a paranoid one-worker reference run, and prints the
// end-to-end metrics as the last line of standard output, a JSON object.
// With --trace 1 it instead makes the traced run and prints the per-layer
// split. README.md explains the workloads and metrics; run.sh builds and
// runs it from the repository root:
//
//	bash perfbench/run.sh --workload releases --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spe/internal/campaign"
)

// outDir holds what a run writes: checkpoints and span files. It sits in
// the build directory run.sh uses, relative to the repository root.
var outDir = filepath.Join(".bench_build", "perfbench-out")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "testsuite, releases or regions-fabric")
	seed := fs.Int64("seed", 1, "run seed; odd seeds start with the one-worker campaign (inputs are fixed, see README.md)")
	seconds := fs.Int("seconds", 40, "how long the measured campaigns run, in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
	corpusSeed := fs.Int64("corpus-seed", defaultCorpusSeed, fmt.Sprintf("generator seed of the testsuite corpus (hold-out for claims: %d)", holdoutCorpusSeed))
	child := fs.Int("campaign-child", 0, "internal: run one measured campaign at this many workers and print it as JSON")
	yard := fs.Bool("yardstick", false, "internal: take one yardstick reading and print it as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *yard {
		cpu, err := measureYardstick()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		line, _ := json.Marshal(yardstickReading{CPU: cpu}) // one integer field always encodes
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload testsuite|releases|regions-fabric, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	slots := runtime.NumCPU()
	runtime.GOMAXPROCS(slots)
	b := &bench{w: w, cfg: w.config(*corpusSeed), corpusSeed: *corpusSeed, slots: slots, out: stdout,
		ckpt: filepath.Join(outDir, fmt.Sprintf("checkpoint-%d.json", os.Getpid()))}
	if *child > 0 {
		before := readCPUTicks()
		r := b.inProcess(context.Background(), *child)
		r.Steal = stealShare(before, readCPUTicks())
		line, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		return 0
	}
	fmt.Fprintf(stdout, "workload %s: %s\n", w.name, w.why)
	if w.unlisted != "" {
		fmt.Fprintf(stdout, "not in BENCHMARK.json: %s\n", w.unlisted)
	}
	fmt.Fprintf(stdout, "GOMAXPROCS=%d, %d corpus files\n", slots, len(b.cfg.Corpus))
	ctx := context.Background()
	var res result
	var err error
	if *traced == 1 {
		res, err = b.tracedRun(ctx)
	} else {
		res, err = b.untracedRun(ctx, time.Duration(*seconds)*time.Second, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench carries one invocation's workload and settings.
type bench struct {
	w          workload
	cfg        campaign.Config
	corpusSeed int64
	slots      int
	out        io.Writer
	ckpt       string // checkpoint file for workloads that checkpoint
}

// config returns the workload's config at the given worker count.
func (b *bench) config(workers int) campaign.Config {
	cfg := b.cfg
	cfg.Workers = workers
	if cfg.CheckpointEvery > 0 {
		cfg.CheckpointPath = b.ckpt
	}
	return cfg
}

// inProcess runs one measured campaign in this process at the given
// worker count (fabric slots for fabric workloads) and removes its
// checkpoint.
func (b *bench) inProcess(ctx context.Context, workers int) campaignRun {
	defer os.Remove(b.ckpt)
	if b.w.fabric {
		return runFabric(ctx, b.config(workers), workers, false, nil).campaignRun
	}
	return runInProcess(ctx, b.config(workers))
}

// inChild runs one measured campaign in a child process of this binary,
// as one `spe campaign` invocation runs: nothing is inherited from earlier
// campaigns' heaps, and the child's peak RSS is the campaign's.
func (b *bench) inChild(ctx context.Context, workers int) campaignRun {
	var r campaignRun
	exe, err := os.Executable()
	if err != nil {
		r.failWith(err)
		return r
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", b.w.name, "--corpus-seed", strconv.FormatInt(b.corpusSeed, 10),
		"--campaign-child", strconv.Itoa(workers))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// the child must not outlive a benchmark that is killed
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		r.failWith(fmt.Errorf("campaign child: %v: %s", err, bytes.TrimSpace(stderr.Bytes())))
		return r
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		r.failWith(fmt.Errorf("campaign child output: %w", err))
		return r
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.RSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r
}

// checker compares reports against the reference and counts tasks.
type checker struct {
	ref       string
	refErr    error
	correct   bool
	attempted int
	failed    int
}

func newChecker(ref *campaign.Report, refErr error) *checker {
	c := &checker{refErr: refErr, correct: refErr == nil}
	if ref != nil {
		c.ref = ref.Format()
	}
	return c
}

// check records one campaign: an error, or a report that differs from the
// reference, fails every one of its tasks.
func (c *checker) check(label string, r campaignRun, out io.Writer) {
	c.attempted += r.Tasks
	switch {
	case r.Err != "":
		fmt.Fprintf(out, "FAIL %s: %s\n", label, r.Err)
		c.correct = false
		c.failed += r.Tasks
	case c.refErr != nil || r.Report != c.ref:
		fmt.Fprintf(out, "FAIL %s: report differs from the paranoid reference\n", label)
		c.correct = false
		c.failed += r.Tasks
	default:
		c.failed += r.Failed
	}
}

// untracedRun measures the end-to-end metrics: campaigns at nproc workers
// and at one worker in turn, each in its own child process, until the
// time is up; then the reference run in this process. The seed picks
// which kind starts, so order effects alternate across runs. A yardstick
// reading precedes the first campaign and follows every one, and each
// campaign's wall-clock figures are scaled by the host speed the two
// readings on either side of it give (hostSpeed).
func (b *bench) untracedRun(ctx context.Context, dur time.Duration, seed int64) (result, error) {
	order := []int{b.slots, 1}
	if seed%2 != 0 {
		order = []int{1, b.slots}
	}
	type sample struct {
		workers int
		run     campaignRun
		speed   float64
	}
	var samples []sample
	var readings []float64
	read := func() error {
		y, err := readYardstick(ctx)
		readings = append(readings, y.Seconds())
		return err
	}
	if err := read(); err != nil {
		return result{}, err
	}
	deadline := time.Now().Add(dur)
	for i := 0; i < len(order) || time.Now().Before(deadline); i++ {
		workers := order[i%len(order)]
		run := b.inChild(ctx, workers)
		if err := read(); err != nil {
			return result{}, err
		}
		samples = append(samples, sample{workers, run, hostSpeed(readings[len(readings)-2:])})
	}

	refStart := time.Now()
	ref, refErr := runReference(ctx, b.config(1))
	chk := newChecker(ref, refErr)
	if refErr != nil {
		fmt.Fprintf(b.out, "FAIL reference: %v\n", refErr)
	}
	fmt.Fprintf(b.out, "paranoid reference: %.1fs\n", time.Since(refStart).Seconds())
	var rateN, rate1, rawN, raw1, setups, rawSetups, setupShares, coverage, rssN, rss1, steal []float64
	for i, s := range samples {
		chk.check(fmt.Sprintf("campaign %d (%d workers)", i, s.workers), s.run, b.out)
		if s.run.Err != "" {
			continue
		}
		setups = append(setups, s.run.ran(s.run.Setup)*s.speed)
		rawSetups = append(rawSetups, s.run.ran(s.run.Setup))
		steal = append(steal, s.run.Steal)
		if s.workers == b.slots {
			rateN = append(rateN, s.run.variantsPerSec()/s.speed)
			rawN = append(rawN, s.run.variantsPerSec())
			setupShares = append(setupShares, ratio(s.run.Setup.Seconds(), (s.run.Setup+s.run.Exec).Seconds()))
			coverage = append(coverage, s.run.Coverage)
			rssN = append(rssN, s.run.RSSMB)
		}
		if s.workers == 1 {
			rate1 = append(rate1, s.run.variantsPerSec()/s.speed)
			raw1 = append(raw1, s.run.variantsPerSec())
			rss1 = append(rss1, s.run.RSSMB)
		}
	}
	if !b.w.fabric && ref != nil {
		coverage = []float64{fullCoverage(ref)}
	}
	values := map[string]float64{
		"variants_per_s":         median(rateN),
		"variants_per_s_1w":      median(rate1),
		"setup_s":                median(setups),
		"peak_rss_mb":            median(rss1),
		"task_success_ratio":     ratio(float64(chk.attempted-chk.failed), float64(chk.attempted)),
		"coverage_full_variants": median(coverage),
	}
	fmt.Fprintf(b.out, "%d campaigns (%d at %d workers, %d at 1), %d shard tasks, %d failed\n",
		len(samples), len(rateN), b.slots, len(rate1), chk.attempted, chk.failed)
	fmt.Fprintf(b.out, "  hypervisor steal  median %.3f of %s (time it took is not counted)\n", median(steal), rounded(steal))
	fmt.Fprintf(b.out, "  yardstick         median %.4f s CPU of %s; reference %.3f s\n", median(readings), rounded(readings), yardstickRef.Seconds())
	fmt.Fprintf(b.out, "  variants_per_s    median %.1f of %s; unscaled %.1f of %s\n", values["variants_per_s"], rounded(rateN), median(rawN), rounded(rawN))
	fmt.Fprintf(b.out, "  variants_per_s_1w median %.1f of %s; unscaled %.1f of %s\n", values["variants_per_s_1w"], rounded(rate1), median(raw1), rounded(raw1))
	fmt.Fprintf(b.out, "  setup_s           median %.4f of %s; unscaled %.4f of %s\n", values["setup_s"], rounded(setups), median(rawSetups), rounded(rawSetups))
	fmt.Fprintf(b.out, "  peak_rss_mb       median %.1f of %s at 1 worker; %.1f of %s at %d\n",
		values["peak_rss_mb"], rounded(rss1), median(rssN), rounded(rssN), b.slots)

	// the input properties, so that a change that helps only one of them
	// can quote its share on each workload; the other two are fixed by
	// the workload's inputs, and the traced run measures them
	fmt.Fprintf(b.out, "input property: campaign.setup_share %.4f\n", median(setupShares))
	return result{Correct: chk.correct, Attempted: chk.attempted, Failed: chk.failed, Metrics: fill(endToEnd, values)}, nil
}

// rounded formats samples to four significant digits for printing.
func rounded(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(out, " ") + "]"
}
