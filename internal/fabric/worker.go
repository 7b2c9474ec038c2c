package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spe/internal/campaign"
)

// Worker drains shard leases from a coordinator. It is thin by design:
// the plan comes from campaign.NewPlanner on the joined Config, and every
// leased shard runs through Planner.RunSpec — the same pooled,
// batched execution path the in-process engine uses — so distributed and
// local campaigns share one code path below the lease loop.
//
// One lease loop serves all execution slots: each round trip reports how
// many slots are free (LeaseRequest.Max) and the coordinator grants up to
// that many tasks at once, so a worker with N idle slots pays one HTTP
// round trip instead of N.
type Worker struct {
	// Transport carries the fabric calls (Dial for HTTP, LocalTransport
	// for loopback, Chaos to inject faults around either).
	Transport Transport
	// ID names this worker in leases and liveness tracking; defaults to
	// "worker".
	ID string
	// Parallelism is how many shard leases this process drains
	// concurrently; zero means 1. (The campaign Config's Workers field
	// sizes the coordinator's dispatch window, not this.)
	Parallelism int
	// RetryBackoff paces wait polls and transport-error retries when the
	// coordinator does not say otherwise; zero means 20ms.
	RetryBackoff time.Duration
	// MaxErrors bounds consecutive transport failures per loop before the
	// worker gives up; zero means 10.
	MaxErrors int
}

// errCampaignOver signals a clean exit.
var errCampaignOver = errors.New("fabric: campaign complete")

// Run joins the coordinator, derives the local plan, and drains leases
// until the campaign completes, fails, or ctx is canceled. A clean
// completion returns nil; campaign failure returns the coordinator's
// error; cancellation returns ctx.Err().
func (w *Worker) Run(ctx context.Context) error {
	id := w.ID
	if id == "" {
		id = "worker"
	}
	parallelism := w.Parallelism
	if parallelism <= 0 {
		parallelism = 1
	}
	backoff := w.RetryBackoff
	if backoff <= 0 {
		backoff = 20 * time.Millisecond
	}
	maxErrs := w.MaxErrors
	if maxErrs <= 0 {
		maxErrs = 10
	}

	join, err := w.join(ctx, id, backoff, maxErrs)
	if err != nil {
		return err
	}
	planner, err := campaign.NewPlanner(join.Config)
	if err != nil {
		return fmt.Errorf("fabric: worker %s: plan from joined config: %w", id, err)
	}
	if planner.TotalTasks() != join.TotalTasks {
		return fmt.Errorf("fabric: worker %s derives %d tasks, coordinator has %d: corpus or config drift",
			id, planner.TotalTasks(), join.TotalTasks)
	}
	return w.drain(ctx, join.CampaignID, id, planner, parallelism, backoff, maxErrs)
}

// join performs the handshake, retrying transport errors.
func (w *Worker) join(ctx context.Context, id string, backoff time.Duration, maxErrs int) (*JoinResponse, error) {
	var lastErr error
	for attempt := 0; attempt < maxErrs; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := w.Transport.Join(ctx, &JoinRequest{WorkerID: id})
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !sleepCtx(ctx, backoff) {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("fabric: worker %s: join: %w", id, lastErr)
}

// drain is the single batched lease loop. Execution slots are semaphore
// tokens: the loop blocks until at least one slot frees, drains whatever
// others are free without blocking, asks for that many tasks in one
// lease call, and hands each grant to its own executor goroutine (which
// returns its token on completion). Unused slots from a short grant go
// straight back. The first terminal outcome — campaign done, campaign
// failure, or transport exhaustion — cancels everything.
func (w *Worker) drain(parent context.Context, campaignID, id string, planner *campaign.Planner, parallelism int, backoff time.Duration, maxErrs int) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	tokens := make(chan struct{}, parallelism)
	for i := 0; i < parallelism; i++ {
		tokens <- struct{}{}
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		loopErr error
	)
	// record notes a terminal outcome and stops the loop. A real failure
	// outranks the benign errCampaignOver; cancellation noise from
	// executors aborted by that very stop is ignored (the parent context
	// check at exit reports genuine cancellation).
	record := func(err error) {
		if err == nil || errors.Is(err, context.Canceled) {
			return
		}
		mu.Lock()
		if loopErr == nil || (errors.Is(loopErr, errCampaignOver) && !errors.Is(err, errCampaignOver)) {
			loopErr = err
		}
		mu.Unlock()
		cancel()
	}
	refund := func(n int) {
		for i := 0; i < n; i++ {
			tokens <- struct{}{}
		}
	}

	consecutive := 0
loop:
	for {
		// block until one slot frees, then drain the rest non-blocking
		select {
		case <-ctx.Done():
			break loop
		case <-tokens:
		}
		free := 1
	drainSlots:
		for free < parallelism {
			select {
			case <-tokens:
				free++
			default:
				break drainSlots
			}
		}
		resp, err := w.Transport.Lease(ctx, &LeaseRequest{CampaignID: campaignID, WorkerID: id, Max: free})
		if err != nil {
			refund(free)
			consecutive++
			if consecutive >= maxErrs {
				record(fmt.Errorf("fabric: worker %s: lease: %w", id, err))
				break loop
			}
			if !sleepCtx(ctx, backoff) {
				break loop
			}
			continue
		}
		consecutive = 0
		switch resp.Status {
		case StatusDone:
			refund(free)
			record(errCampaignOver)
			break loop
		case StatusFailed:
			refund(free)
			record(fmt.Errorf("fabric: campaign failed: %s", resp.Err))
			break loop
		case StatusWait:
			refund(free)
			wait := time.Duration(resp.RetryAfterMs) * time.Millisecond
			if wait <= 0 {
				wait = backoff
			}
			if !sleepCtx(ctx, wait) {
				break loop
			}
		case StatusTask:
			grants := resp.Grants
			if len(grants) > free {
				// over-grant from a misbehaving coordinator: run what fits,
				// let the excess leases expire and re-lease harmlessly
				grants = grants[:free]
			}
			refund(free - len(grants))
			for _, g := range grants {
				wg.Add(1)
				go func(g LeaseGrant) {
					defer wg.Done()
					defer refund(1)
					record(w.execute(ctx, campaignID, id, planner, g, backoff, maxErrs))
				}(g)
			}
		default:
			refund(free)
			record(fmt.Errorf("fabric: worker %s: unknown lease status %q", id, resp.Status))
			break loop
		}
	}
	wg.Wait()
	mu.Lock()
	err := loopErr
	mu.Unlock()
	if err != nil && !errors.Is(err, errCampaignOver) {
		return err
	}
	return parent.Err()
}

// execute runs one leased shard and reports the outcome. A worker-side
// shard error is reported to the coordinator, which charges a retry and
// re-leases; a panicking shard, or a result the coordinator refuses as
// over its body bound, is reported as a reproducible failure, which fails
// the campaign at once.
// It returns errCampaignOver when the report confirms the campaign
// completed, a terminal error on transport exhaustion or campaign
// failure, and nil when the loop should simply continue.
func (w *Worker) execute(ctx context.Context, campaignID, id string, planner *campaign.Planner, g LeaseGrant, backoff time.Duration, maxErrs int) error {
	res, runErr := planner.RunSpec(ctx, g.Spec)
	if runErr != nil && ctx.Err() != nil {
		// canceled mid-shard: exit quietly, the lease will expire and the
		// task re-leases elsewhere
		return ctx.Err()
	}
	req := &ResultRequest{CampaignID: campaignID, WorkerID: id, LeaseID: g.LeaseID, Seq: g.Spec.Seq}
	if runErr != nil {
		req.Err = runErr.Error()
		req.Reproducible = errors.Is(runErr, campaign.ErrShardPanic)
	} else {
		req.Result = res
	}
	consecutive := 0
	for {
		resp, err := w.Transport.Result(ctx, req)
		if errors.Is(err, errTooLarge) && req.Result != nil {
			// a result is a pure function of its task: neither resending
			// it nor re-running the task can succeed, so report the task
			// as failed, marked reproducible
			req = &ResultRequest{CampaignID: campaignID, WorkerID: id, LeaseID: g.LeaseID, Seq: g.Spec.Seq,
				Err: fmt.Sprintf("result of task %d (corpus file %d): %v", g.Spec.Seq, g.Spec.SeedIdx, err), Reproducible: true}
			continue
		}
		if err != nil {
			consecutive++
			if consecutive >= maxErrs {
				return fmt.Errorf("fabric: worker %s: report task %d: %w", id, g.Spec.Seq, err)
			}
			if !sleepCtx(ctx, backoff) {
				return ctx.Err()
			}
			continue // retried reports are how duplicate delivery happens; Deliver discards them
		}
		if resp.Failed {
			return fmt.Errorf("fabric: campaign failed: %s", resp.Err)
		}
		if resp.Done {
			return errCampaignOver
		}
		return nil
	}
}

// sleepCtx sleeps d unless ctx ends first; reports whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
