package fabric

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"spe/internal/campaign"
)

// Options tunes the coordinator's lease discipline.
type Options struct {
	// LeaseTimeout is how long a worker holds a shard before the lease
	// expires and the task is re-leased. Zero means 30s.
	LeaseTimeout time.Duration
	// MaxRetries bounds how many times one seq may be re-dispatched after
	// expiries or worker-reported failures before the campaign fails.
	// Zero means 3; negative means unlimited.
	MaxRetries int
	// Metrics, when non-nil, receives fabric counters (nil is inert).
	Metrics *Metrics
}

func (o Options) withDefaults() Options {
	if o.LeaseTimeout == 0 {
		o.LeaseTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	return o
}

// lease is one outstanding grant.
type lease struct {
	id       string
	seq      int
	worker   string
	deadline time.Time
}

// Coordinator owns the campaign and leases its shard tasks to workers.
// All methods are safe for concurrent use; the HTTP handler and the
// loopback transport both call straight into them.
type Coordinator struct {
	core *campaign.RemoteEngine
	opts Options
	id   string

	mu        sync.Mutex
	leases    map[string]*lease // by lease ID
	bySeq     map[int]*lease    // at most one active lease per seq
	retries   map[int]int       // re-dispatch count per seq
	workers   map[string]time.Time
	nextLease int64
	failure   error
	done      chan struct{}
}

// NewCoordinator wraps an engine core (fresh via campaign.NewRemoteEngine
// or resumed via campaign.ResumeRemoteEngine).
func NewCoordinator(core *campaign.RemoteEngine, opts Options) *Coordinator {
	c := &Coordinator{
		core:    core,
		opts:    opts.withDefaults(),
		id:      newCampaignID(),
		leases:  make(map[string]*lease),
		bySeq:   make(map[int]*lease),
		retries: make(map[int]int),
		workers: make(map[string]time.Time),
		done:    make(chan struct{}),
	}
	c.opts.Metrics.observeCoordinator(c)
	if core.Done() {
		close(c.done)
	}
	return c
}

// newCampaignID mints a random identifier so a worker that outlives one
// coordinator cannot feed results into the next campaign by accident.
func newCampaignID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("spe-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// ID returns the campaign identifier carried by every fabric message.
func (c *Coordinator) ID() string { return c.id }

// Core exposes the underlying engine (progress accessors for /status).
func (c *Coordinator) Core() *campaign.RemoteEngine { return c.core }

// ActiveLeases returns the number of unexpired outstanding leases.
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// LiveWorkers returns how many workers called in within two lease
// timeouts — the liveness window the metrics gauge reports.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-2 * c.opts.LeaseTimeout)
	n := 0
	for _, seen := range c.workers {
		if seen.After(cutoff) {
			n++
		}
	}
	return n
}

// Join answers a worker's handshake with the resolved config. The worker
// derives its plan from this config alone, so agreement is by
// construction; CheckpointPath is cleared because checkpointing is the
// coordinator's job.
func (c *Coordinator) Join(ctx context.Context, req *JoinRequest) (*JoinResponse, error) {
	c.touch(req.WorkerID)
	cfg := c.core.Config()
	cfg.CheckpointPath = ""
	return &JoinResponse{
		CampaignID:     c.id,
		Config:         cfg,
		TotalTasks:     c.core.TotalTasks(),
		LeaseTimeoutMs: c.opts.LeaseTimeout.Milliseconds(),
	}, nil
}

// Lease hands out up to req.Max shard tasks in one batch, or tells the
// worker to wait, exit on completion, or abort on campaign failure.
func (c *Coordinator) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	if err := c.checkCampaign(req.CampaignID); err != nil {
		return nil, err
	}
	c.touch(req.WorkerID)
	c.sweepExpired()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return &LeaseResponse{Status: StatusFailed, Err: c.failure.Error()}, nil
	}
	if c.core.Done() {
		return &LeaseResponse{Status: StatusDone}, nil
	}
	max := req.Max
	if max <= 0 {
		max = 1 // Max comes off the wire: a missing or bad value asks for one
	}
	var grants []LeaseGrant
	for len(grants) < max {
		spec, ok := c.core.NextTask()
		if !ok {
			break
		}
		c.nextLease++
		l := &lease{
			id:       fmt.Sprintf("%s-%d", c.id, c.nextLease),
			seq:      spec.Seq,
			worker:   req.WorkerID,
			deadline: time.Now().Add(c.opts.LeaseTimeout),
		}
		c.leases[l.id] = l
		c.bySeq[l.seq] = l
		if c.retries[l.seq] > 0 {
			c.opts.Metrics.incReleases()
		}
		c.opts.Metrics.incLeases()
		grants = append(grants, LeaseGrant{Spec: spec, LeaseID: l.id})
	}
	if len(grants) == 0 {
		c.opts.Metrics.incWaitPolls()
		return &LeaseResponse{Status: StatusWait, RetryAfterMs: c.retryAfterMs()}, nil
	}
	return &LeaseResponse{Status: StatusTask, Grants: grants}, nil
}

// retryAfterMs paces wait polling: a quarter lease timeout, clamped so
// short test timeouts still poll briskly and long production ones do not
// hammer the coordinator.
func (c *Coordinator) retryAfterMs() int64 {
	ms := c.opts.LeaseTimeout.Milliseconds() / 4
	if ms < 5 {
		ms = 5
	}
	if ms > 1000 {
		ms = 1000
	}
	return ms
}

// Result folds a worker's shard outcome back into the campaign. The
// first result per seq is accepted no matter whose lease produced it —
// shard results are pure functions of the task, so any copy carries the
// same bytes; duplicates are acknowledged and discarded.
func (c *Coordinator) Result(ctx context.Context, req *ResultRequest) (*ResultResponse, error) {
	if err := c.checkCampaign(req.CampaignID); err != nil {
		return nil, err
	}
	c.touch(req.WorkerID)
	c.sweepExpired()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return &ResultResponse{Failed: true, Err: c.failure.Error()}, nil
	}
	// the seq's active lease is moot now whether this succeeds or not —
	// drop it so an expiry sweep cannot double-count a retry
	if l := c.bySeq[req.Seq]; l != nil {
		delete(c.leases, l.id)
		delete(c.bySeq, req.Seq)
	}
	if req.Err != "" {
		c.opts.Metrics.incWorkerErrors()
		cause := fmt.Errorf("worker %s: %s", req.WorkerID, req.Err)
		if req.Reproducible {
			err := fmt.Errorf("fabric: task %d failed, and every re-run would fail the same way: %w", req.Seq, cause)
			c.failLocked(err)
			return &ResultResponse{Failed: true, Err: err.Error()}, nil
		}
		if err := c.retryLocked(req.Seq, cause); err != nil {
			return &ResultResponse{Failed: true, Err: err.Error()}, nil
		}
		return &ResultResponse{}, nil
	}
	accepted, err := c.core.Deliver(req.Result)
	if err != nil {
		c.failLocked(err)
		return &ResultResponse{Accepted: accepted, Failed: true, Err: err.Error()}, nil
	}
	c.opts.Metrics.incResults(accepted)
	done := c.core.Done()
	if done {
		c.closeDoneLocked()
	}
	return &ResultResponse{Accepted: accepted, Done: done}, nil
}

// checkCampaign rejects messages addressed to a different campaign (a
// worker that outlived a previous coordinator).
func (c *Coordinator) checkCampaign(id string) error {
	if id != c.id {
		return fmt.Errorf("fabric: unknown campaign %q (serving %q)", id, c.id)
	}
	return nil
}

// touch records worker liveness.
func (c *Coordinator) touch(worker string) {
	if worker == "" {
		return
	}
	c.mu.Lock()
	c.workers[worker] = time.Now()
	c.mu.Unlock()
}

// sweepExpired hands every expired lease back to the engine for
// re-dispatch; each expiry counts a retry for its seq. Runs on every
// fabric call and on Wait's ticker, so a fleet that goes completely
// silent still makes the campaign fail (or re-lease) instead of hanging.
func (c *Coordinator) sweepExpired() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failure != nil {
		return
	}
	for id, l := range c.leases {
		if !now.After(l.deadline) {
			continue
		}
		delete(c.leases, id)
		delete(c.bySeq, l.seq)
		c.opts.Metrics.incExpiries()
		if err := c.retryLocked(l.seq, fmt.Errorf("lease for task %d on worker %s expired", l.seq, l.worker)); err != nil {
			return
		}
	}
}

// retryLocked requeues a seq after an expiry or worker failure, failing
// the campaign once the seq has been re-dispatched MaxRetries times.
func (c *Coordinator) retryLocked(seq int, cause error) error {
	c.retries[seq]++
	if c.opts.MaxRetries >= 0 && c.retries[seq] > c.opts.MaxRetries {
		err := fmt.Errorf("fabric: task %d failed %d times, giving up: %w", seq, c.retries[seq], cause)
		c.failLocked(err)
		return err
	}
	c.core.Requeue(seq)
	return nil
}

// failLocked records the campaign failure and releases waiters.
func (c *Coordinator) failLocked(err error) {
	if c.failure == nil {
		c.failure = err
	}
	c.closeDoneLocked()
}

func (c *Coordinator) closeDoneLocked() {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// Err returns the campaign failure, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failure
}

// Wait blocks until the campaign completes, fails, or ctx is canceled,
// sweeping expired leases in the background so silent workers cannot
// stall it. On completion it returns the finalized Report; on failure or
// cancellation it shuts the engine down, which checkpoints merged
// progress (so a restarted coordinator resumes instead of recomputing)
// and marks telemetry done, and returns the error.
func (c *Coordinator) Wait(ctx context.Context) (*campaign.Report, error) {
	tick := c.opts.LeaseTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			c.failLocked(ctx.Err())
			c.mu.Unlock()
			if err := c.core.Shutdown(); err != nil {
				return nil, fmt.Errorf("fabric: shutdown checkpoint: %w (after %w)", err, ctx.Err())
			}
			return nil, ctx.Err()
		case <-c.done:
			if err := c.Err(); err != nil {
				c.core.Shutdown()
				return nil, err
			}
			return c.core.Finalize()
		case <-ticker.C:
			// a retries-exhausted sweep fails the campaign, which closes
			// c.done and resolves the next select iteration
			c.sweepExpired()
		}
	}
}
