package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"spe/internal/campaign"
	"spe/internal/fabric"
	"spe/internal/obs"
)

// campaignRun is one campaign as the benchmark saw it. It travels from a
// child process to the parent as JSON.
type campaignRun struct {
	// Report is the campaign's Report.Format(), compared with the
	// reference's; Variants and Coverage (variants to full coverage) are
	// read from the same report.
	Report   string  `json:"report"`
	Variants int     `json:"variants"`
	Coverage float64 `json:"coverage"`
	// Setup is plan derivation; Exec is everything after it.
	Setup time.Duration `json:"setup_ns"`
	Exec  time.Duration `json:"exec_ns"`
	Tasks int           `json:"tasks"`
	// Steal is the share of the campaign's vCPU time the hypervisor
	// stole (stealShare); 0 for campaigns run in this process.
	Steal float64 `json:"steal"`
	// Failed counts shard tasks that errored, were retried or re-leased.
	Failed int    `json:"failed"`
	Err    string `json:"err,omitempty"`
	// RSSMB is the peak resident memory of the child process that ran
	// the campaign (0 for a campaign run in this process).
	RSSMB float64 `json:"-"`

	// report and tel exist only for campaigns run in this process; tel is
	// nil for fabric runs.
	report *campaign.Report
	tel    *campaign.Telemetry
}

// done fills the fields read from a finished campaign's report.
func (r *campaignRun) done(rep *campaign.Report) {
	r.report = rep
	r.Report = rep.Format()
	r.Variants = rep.Stats.Variants
	r.Coverage = fullCoverage(rep)
}

// failWith marks every task of the campaign failed.
func (r *campaignRun) failWith(err error) {
	r.Err = err.Error()
	r.Tasks = max(r.Tasks, 1)
	r.Failed = r.Tasks
}

// ran is how much of d the VM actually ran: d less the share the
// hypervisor stole.
func (r campaignRun) ran(d time.Duration) float64 { return d.Seconds() * (1 - r.Steal) }

// variantsPerSec is tested variants over the time after set-up that the
// VM ran.
func (r campaignRun) variantsPerSec() float64 {
	return ratio(float64(r.Variants), r.ran(r.Exec))
}

// fullCoverage is how many variants the coverage curve needed to reach
// its final site count.
func fullCoverage(rep *campaign.Report) float64 {
	return float64(rep.VariantsToSites(rep.FinalSites()))
}

// counter reads one series out of a registry snapshot as a number.
func counter(snap map[string]interface{}, id string) float64 {
	switch v := snap[id].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// runInProcess runs campaign.Run. Telemetry is attached only for its
// clock: Status().StartTime is the instant Run finished deriving its plan,
// which splits the run's wall into set-up and execution without timing
// anything inside the engine.
func runInProcess(ctx context.Context, cfg campaign.Config) campaignRun {
	tel := campaign.NewTelemetry()
	cfg.Telemetry = tel
	start := time.Now()
	rep, err := campaign.RunContext(ctx, cfg)
	end := time.Now()
	st := tel.Status()
	r := campaignRun{tel: tel, Tasks: int(counter(tel.Registry().Snapshot(), "spe_shards_merged_total"))}
	if err != nil {
		r.failWith(err)
		return r
	}
	r.done(rep)
	r.Setup = st.StartTime.Sub(start)
	r.Exec = end.Sub(st.StartTime)
	return r
}

// runReference runs the paranoid one-worker reference campaign whose
// report every measured report must equal. For fifo workloads it also
// records the coverage curve, which the report text excludes.
func runReference(ctx context.Context, cfg campaign.Config) (*campaign.Report, error) {
	cfg.Paranoid = true
	cfg.Workers = 1
	cfg.CheckpointPath = ""
	cfg.Telemetry = nil
	if cfg.Schedule == "" || cfg.Schedule == campaign.ScheduleFIFO {
		cfg.CoverageCurve = true
	}
	return campaign.RunContext(ctx, cfg)
}

// timedTransport wraps the fabric HTTP transport. It always notes when the
// worker first asks for a lease (the end of its join and planning); with
// detail set it also times every call and sizes every result body.
type timedTransport struct {
	inner      fabric.Transport
	detail     bool
	tr         *tracer
	firstLease atomic.Int64 // unix ns

	mu                 sync.Mutex
	leaseNs, resultNs  []float64
	resultBytes        []float64
	taskLeases, grants int
	waitReplies        int
}

func (t *timedTransport) Join(ctx context.Context, req *fabric.JoinRequest) (*fabric.JoinResponse, error) {
	start := time.Now()
	resp, err := t.inner.Join(ctx, req)
	t.tr.add(0, "fabric.join", -1, start, time.Now())
	return resp, err
}

func (t *timedTransport) Lease(ctx context.Context, req *fabric.LeaseRequest) (*fabric.LeaseResponse, error) {
	start := time.Now()
	t.firstLease.CompareAndSwap(0, start.UnixNano())
	resp, err := t.inner.Lease(ctx, req)
	if !t.detail {
		return resp, err
	}
	end := time.Now()
	t.tr.add(0, "fabric.lease", -1, start, end)
	t.mu.Lock()
	t.leaseNs = append(t.leaseNs, float64(end.Sub(start).Nanoseconds()))
	if err == nil {
		switch resp.Status {
		case fabric.StatusTask:
			t.taskLeases++
			t.grants += max(len(resp.Grants), 1)
		case fabric.StatusWait:
			t.waitReplies++
		}
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) Result(ctx context.Context, req *fabric.ResultRequest) (*fabric.ResultResponse, error) {
	if !t.detail {
		return t.inner.Result(ctx, req)
	}
	body, merr := json.Marshal(req)
	start := time.Now()
	resp, err := t.inner.Result(ctx, req)
	end := time.Now()
	t.tr.add(0, "fabric.result", -1, start, end)
	t.mu.Lock()
	t.resultNs = append(t.resultNs, float64(end.Sub(start).Nanoseconds()))
	if merr == nil {
		t.resultBytes = append(t.resultBytes, float64(len(body)))
	}
	t.mu.Unlock()
	return resp, err
}

// fabricRun is a fabric campaign plus what its transport and coordinator
// counted.
type fabricRun struct {
	campaignRun
	transport *timedTransport
	reLeases  int
}

// runFabric runs one campaign through a loopback coordinator
// (fabric.NewCoordinator behind obs.Serve on 127.0.0.1:0) and one
// fabric.Worker with the given slots, all in this process. Set-up runs
// from NewRemoteEngine until the worker, joined and planned, asks for its
// first lease.
func runFabric(ctx context.Context, cfg campaign.Config, slots int, detail bool, tr *tracer) fabricRun {
	reg := obs.NewRegistry()
	tt := &timedTransport{detail: detail, tr: tr}
	r := fabricRun{transport: tt}
	fail := func(err error) fabricRun {
		r.failWith(err)
		return r
	}
	start := time.Now()
	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		return fail(err)
	}
	r.Tasks = core.TotalTasks()
	coord := fabric.NewCoordinator(core, fabric.Options{LeaseTimeout: time.Minute, Metrics: fabric.NewMetrics(reg)})
	srv, err := obs.Serve("127.0.0.1:0", coord.Handler())
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	tt.inner = fabric.Dial(srv.Addr)

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := &fabric.Worker{Transport: tt, ID: "perfbench", Parallelism: slots}
		workerErr = w.Run(wctx)
	}()
	rep, err := coord.Wait(wctx)
	end := time.Now()
	cancel()
	wg.Wait()
	if err != nil {
		return fail(err)
	}
	if workerErr != nil && !errors.Is(workerErr, context.Canceled) {
		return fail(fmt.Errorf("fabric worker: %w", workerErr))
	}
	snap := reg.Snapshot()
	r.reLeases = int(counter(snap, "spe_fabric_re_leases_total"))
	r.Failed = r.reLeases + int(counter(snap, "spe_fabric_worker_errors_total"))
	first := time.Unix(0, tt.firstLease.Load())
	r.done(rep)
	r.Setup = first.Sub(start)
	r.Exec = end.Sub(first)
	return r
}

// driveRun is the transport-free campaign drive's outcome.
type driveRun struct {
	report       *campaign.Report
	start, exec0 time.Time // drive start; first NextTask
	end          time.Time // Finalize returned
	slots        int
	tasks        int
	ckptBytes    []float64
}

// notifier lets idle slots sleep until the next Deliver.
type notifier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	gen    int64
	closed bool
}

func newNotifier() *notifier {
	n := &notifier{}
	n.cond = sync.NewCond(&n.mu)
	return n
}

func (n *notifier) current() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.gen
}

func (n *notifier) bump() {
	n.mu.Lock()
	n.gen++
	n.cond.Broadcast()
	n.mu.Unlock()
}

func (n *notifier) close() {
	n.mu.Lock()
	n.closed = true
	n.cond.Broadcast()
	n.mu.Unlock()
}

// waitPast blocks until a Deliver after generation g, or close.
func (n *notifier) waitPast(g int64) {
	n.mu.Lock()
	for n.gen == g && !n.closed {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// drive runs a campaign through campaign.NewRemoteEngine and
// Planner.RunSpec on `slots` goroutines with no transport, recording a
// span around every call: the campaign layer's trace. When the config
// checkpoints, the drive calls RemoteEngine.Checkpoint itself every
// CheckpointEvery merges so that the write can be timed on its own.
func drive(ctx context.Context, cfg campaign.Config, slots int, tr *tracer) (driveRun, error) {
	d := driveRun{slots: slots}
	every := cfg.CheckpointEvery
	if cfg.CheckpointPath != "" {
		cfg.CheckpointEvery = 1 << 30 // the drive checkpoints, not Deliver
	}
	d.start = time.Now()
	setupID := tr.id()
	t0 := time.Now()
	eng, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		return d, err
	}
	t1 := time.Now()
	tr.add(setupID, "campaign.new_remote_engine", 0, t0, t1)
	planner, err := campaign.NewPlanner(eng.Config())
	if err != nil {
		return d, err
	}
	d.exec0 = time.Now()
	tr.add(setupID, "campaign.new_planner", 0, t1, d.exec0)
	tr.record(setupID, 0, "campaign.setup", 0, d.start, d.exec0)
	for s := 1; s < slots; s++ {
		tr.add(0, "campaign.setup_idle", s, d.start, d.exec0)
	}
	d.tasks = eng.TotalTasks()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	note := newNotifier()
	var (
		errOnce  sync.Once
		firstErr error
		ckMu     sync.Mutex
		lastCk   int
	)
	abort := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
		note.close()
	}
	exits := make([]time.Time, slots)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// every moment of the slot goes into exactly one span: each
			// span starts where the slot's previous one ended
			last := d.exec0
			mark := func(name string) {
				now := time.Now()
				tr.add(0, name, slot, last, now)
				last = now
			}
			defer func() { exits[slot] = last }()
			for ctx.Err() == nil {
				g := note.current()
				spec, ok := eng.NextTask()
				if !ok {
					if eng.Done() {
						note.close()
						return
					}
					note.waitPast(g)
					mark("campaign.idle")
					continue
				}
				mark("campaign.dispatch")
				res, err := planner.RunSpec(ctx, spec)
				mark("campaign.shard")
				if err != nil {
					abort(err)
					return
				}
				_, err = eng.Deliver(res)
				if err != nil {
					mark("campaign.merge")
					abort(err)
					return
				}
				note.bump()
				if cfg.CheckpointPath == "" {
					mark("campaign.merge")
					continue
				}
				// waiting for another slot's checkpoint counts as merge
				ckMu.Lock()
				m := eng.MergedTasks()
				mark("campaign.merge")
				if m/every > lastCk/every {
					lastCk = m
					err = eng.Checkpoint()
					mark("campaign.checkpoint")
					if err == nil {
						var fi os.FileInfo
						if fi, err = os.Stat(cfg.CheckpointPath); err == nil {
							d.ckptBytes = append(d.ckptBytes, float64(fi.Size()))
						}
					}
				}
				ckMu.Unlock()
				if err != nil {
					abort(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return d, firstErr
	}
	if err := ctx.Err(); err != nil {
		return d, err
	}
	fin := time.Now()
	rep, err := eng.Finalize()
	d.end = time.Now()
	if err != nil {
		return d, err
	}
	// account for every slot until the report exists: slots that ran out
	// of work wait, and slot 0 stands for the finalizing goroutine
	tr.add(0, "campaign.finalize", 0, fin, d.end)
	for s, at := range exits {
		until := d.end
		if s == 0 {
			until = fin
		}
		tr.add(0, "campaign.idle", s, at, until)
	}
	d.report = rep
	return d, nil
}
