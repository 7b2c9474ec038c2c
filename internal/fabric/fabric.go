// Package fabric distributes one campaign across a coordinator and a
// fleet of workers over HTTP+JSON (net/http only — zero new deps).
//
// The split rides the campaign package's remote bridge: the coordinator
// owns a campaign.RemoteEngine (plan, coverage-steered dispatch, the
// seq-ordered aggregator, checkpointing) and leases serialized shard
// tasks to workers with deadlines; workers own campaign.Planners (the
// identical plan derived locally from the Config carried by the join
// handshake) and execute leased shards through the exact code path the
// in-process engine uses. Only campaign.TaskSpec and campaign.ShardResult
// cross the wire.
//
// Determinism contract: a shard's result is a pure function of its
// TaskSpec and the shared Config, the merge consumes results strictly in
// canonical seq order, and the engine accepts each seq exactly once — so
// worker count, lease timing, message loss, duplication, reordering, and
// re-execution after a crash cannot change a byte of the final Report.
// The fault-injection tests in this package pin that equivalence against
// the in-process engine.
//
// Fault model and lease semantics:
//
//   - A lease is (task seq, worker, deadline). Expired leases are handed
//     back to the engine and re-leased lowest-seq-first without consuming
//     a fresh dispatch-window slot, so a full window can always recover.
//   - The first result delivered for a seq wins, whether or not its lease
//     is still current; later copies (zombie workers, retried messages)
//     are acknowledged and discarded.
//   - Each expiry or worker-reported shard failure counts one retry for
//     that seq. When a seq exceeds MaxRetries the campaign fails with an
//     error (never a hang); in-flight progress is checkpointed.
//   - A failure the worker marks Reproducible (its result is over the
//     coordinator's body bound, or the shard panicked, and a shard is a
//     pure function of its task) fails the campaign on the first report,
//     naming the task and its corpus file, without spending retries on
//     identical re-runs.
package fabric

import (
	"context"

	"spe/internal/campaign"
)

// Protocol version prefix for the HTTP endpoints.
const apiPrefix = "/fabric/v1/"

// JoinRequest introduces a worker to the coordinator.
type JoinRequest struct {
	WorkerID string `json:"worker"`
}

// JoinResponse hands the worker everything it needs to plan locally: the
// coordinator's resolved Config (the plan is a pure function of it), the
// expected task count for early drift detection, and the lease deadline
// the worker should stay within.
type JoinResponse struct {
	CampaignID     string          `json:"campaign"`
	Config         campaign.Config `json:"config"`
	TotalTasks     int             `json:"total_tasks"`
	LeaseTimeoutMs int64           `json:"lease_timeout_ms"`
}

// Lease statuses.
const (
	// StatusTask carries a leased shard task.
	StatusTask = "task"
	// StatusWait means nothing is leasable right now (window full or all
	// remaining tasks leased); poll again after RetryAfterMs.
	StatusWait = "wait"
	// StatusDone means every shard has merged; the worker may exit.
	StatusDone = "done"
	// StatusFailed means the campaign failed; Err says why.
	StatusFailed = "failed"
)

// LeaseRequest asks for shard tasks.
type LeaseRequest struct {
	CampaignID string `json:"campaign"`
	WorkerID   string `json:"worker"`
	// Max is how many tasks the worker can start right now (its free
	// execution slots), letting the coordinator grant a whole batch in
	// one round trip instead of one lease per HTTP call. Zero, negative
	// or absent means one.
	Max int `json:"max,omitempty"`
}

// LeaseGrant is one leased shard task inside a (possibly batched)
// LeaseResponse.
type LeaseGrant struct {
	Spec    campaign.TaskSpec `json:"spec"`
	LeaseID string            `json:"lease"`
}

// LeaseResponse grants one or more leases or tells the worker what to do
// instead. On StatusTask, Grants carries every grant.
type LeaseResponse struct {
	Status       string       `json:"status"`
	Grants       []LeaseGrant `json:"grants,omitempty"`
	RetryAfterMs int64        `json:"retry_after_ms,omitempty"`
	Err          string       `json:"err,omitempty"`
}

// ResultRequest reports a finished (or failed) shard back under a lease.
type ResultRequest struct {
	CampaignID string `json:"campaign"`
	WorkerID   string `json:"worker"`
	LeaseID    string `json:"lease"`
	Seq        int    `json:"seq"`
	// Result is the shard outcome; nil when Err is set.
	Result *campaign.ShardResult `json:"result,omitempty"`
	// Err reports a worker-side shard failure (counts a retry for the seq).
	Err string `json:"err,omitempty"`
	// Reproducible marks an Err that every re-run of the task yields
	// again, such as a result over the coordinator's body bound or a
	// panicking shard: the coordinator fails the campaign at once instead
	// of re-leasing.
	Reproducible bool `json:"reproducible,omitempty"`
}

// ResultResponse acknowledges a result.
type ResultResponse struct {
	// Accepted is false for duplicates (harmless — the first copy merged).
	Accepted bool `json:"accepted"`
	// Done reports whether the campaign completed with this result.
	Done bool `json:"done"`
	// Failed reports that the campaign has failed; the worker should exit.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Transport carries the three fabric calls from a worker to its
// coordinator. Implementations: LocalTransport (direct calls, loopback
// tests), Dial's HTTP client, and Chaos (fault injection around either).
type Transport interface {
	Join(ctx context.Context, req *JoinRequest) (*JoinResponse, error)
	Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error)
	Result(ctx context.Context, req *ResultRequest) (*ResultResponse, error)
}
