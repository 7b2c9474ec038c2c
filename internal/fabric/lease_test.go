package fabric

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"spe/internal/campaign"
	"spe/internal/obs"
)

// Lease-semantics unit tests, driven straight through the coordinator's
// protocol methods — no Worker loop, so every transition is explicit:
// expiry re-dispatches the same seq, a zombie's duplicate result is
// discarded exactly once, and -max-retries exhaustion surfaces as a
// campaign error rather than a hang.

// tinyConfig keeps these protocol tests fast: one seed, a handful of
// shards.
func tinyConfig() campaign.Config {
	cfg := baseConfig()
	cfg.Corpus = cfg.Corpus[:1]
	cfg.MaxVariantsPerFile = 24
	return cfg
}

func newTestCoordinator(t *testing.T, cfg campaign.Config, opts Options) (*Coordinator, *campaign.Planner) {
	t.Helper()
	core, err := campaign.NewRemoteEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := campaign.NewPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(core, opts), planner
}

// mustLeaseTask leases without Max, which must grant exactly one task,
// and returns that grant.
func mustLeaseTask(t *testing.T, c *Coordinator, worker string) LeaseGrant {
	t.Helper()
	resp, err := c.Lease(context.Background(), &LeaseRequest{CampaignID: c.ID(), WorkerID: worker})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusTask {
		t.Fatalf("lease status = %q, want %q (err=%q)", resp.Status, StatusTask, resp.Err)
	}
	if len(resp.Grants) != 1 {
		t.Fatalf("a lease without Max got %d grants, want 1", len(resp.Grants))
	}
	return resp.Grants[0]
}

// TestLeaseExpiryRedispatch leases a task, lets the lease expire, and
// asserts the same seq is handed out again — to a different worker, with
// a fresh lease ID.
func TestLeaseExpiryRedispatch(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{LeaseTimeout: 20 * time.Millisecond, Metrics: m})

	first := mustLeaseTask(t, coord, "straggler")
	time.Sleep(30 * time.Millisecond) // past the deadline

	second := mustLeaseTask(t, coord, "replacement")
	if second.Spec.Seq != first.Spec.Seq {
		t.Fatalf("re-lease handed seq %d, want the expired seq %d", second.Spec.Seq, first.Spec.Seq)
	}
	if second.LeaseID == first.LeaseID {
		t.Fatal("re-lease reused the expired lease ID")
	}
	if n := m.expiries.Load(); n != 1 {
		t.Fatalf("expiries = %d, want 1", n)
	}
	if n := m.releases.Load(); n != 1 {
		t.Fatalf("re-leases = %d, want 1", n)
	}
}

// TestLeaseZombieDuplicateDiscarded delivers a shard result twice: the
// first (from an already-expired lease — content still wins) must merge,
// the second must be acknowledged but discarded.
func TestLeaseZombieDuplicateDiscarded(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	cfg := tinyConfig()
	coord, planner := newTestCoordinator(t, cfg, Options{LeaseTimeout: 20 * time.Millisecond, Metrics: m})

	l := mustLeaseTask(t, coord, "zombie")
	res, err := planner.RunSpec(context.Background(), l.Spec)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	coord.sweepExpired() // the zombie's lease is reclaimed before it reports

	req := &ResultRequest{CampaignID: coord.ID(), WorkerID: "zombie", LeaseID: l.LeaseID, Seq: l.Spec.Seq, Result: res}
	firstAck, err := coord.Result(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !firstAck.Accepted {
		t.Fatal("first result copy rejected; the merge should take content regardless of lease staleness")
	}
	secondAck, err := coord.Result(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if secondAck.Accepted {
		t.Fatal("duplicate result accepted twice; the merge would double-count")
	}
	if coord.Core().MergedTasks() != 1 {
		t.Fatalf("merged %d tasks, want exactly 1", coord.Core().MergedTasks())
	}
	if n := m.resultsDup.Load(); n != 1 {
		t.Fatalf("duplicate results = %d, want 1", n)
	}
}

// TestLeaseMaxRetriesExhaustion abandons the same task's lease
// repeatedly and asserts the campaign fails with an error naming the
// task — and that Wait returns it instead of hanging.
func TestLeaseMaxRetriesExhaustion(t *testing.T) {
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{LeaseTimeout: 10 * time.Millisecond, MaxRetries: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waitErr := make(chan error, 1)
	go func() {
		_, err := coord.Wait(ctx)
		waitErr <- err
	}()

	// lease the head task over and over, never reporting: each expiry
	// charges one retry until the budget (2) is exhausted
	deadline := time.Now().Add(10 * time.Second)
	for coord.Err() == nil && time.Now().Before(deadline) {
		resp, err := coord.Lease(context.Background(), &LeaseRequest{CampaignID: coord.ID(), WorkerID: "sinkhole"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusFailed {
			break
		}
		time.Sleep(15 * time.Millisecond)
	}

	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("Wait returned nil after retries were exhausted")
		}
		if !strings.Contains(err.Error(), "giving up") {
			t.Fatalf("exhaustion error %q does not name the retry failure", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Wait hung after max-retries exhaustion")
	}

	// and the failure is terminal: further leases refuse with the error
	resp, err := coord.Lease(context.Background(), &LeaseRequest{CampaignID: coord.ID(), WorkerID: "late"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusFailed || resp.Err == "" {
		t.Fatalf("post-failure lease = %+v, want StatusFailed with the campaign error", resp)
	}
}

// TestLeaseWorkerReportedFailureRetries charges the retry budget through
// the other path: the worker reports a shard error instead of going
// silent. The task must re-lease, and exhaustion must fail the campaign.
func TestLeaseWorkerReportedFailureRetries(t *testing.T) {
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{LeaseTimeout: time.Minute, MaxRetries: 1})

	l := mustLeaseTask(t, coord, "flaky")
	ack, err := coord.Result(context.Background(), &ResultRequest{
		CampaignID: coord.ID(), WorkerID: "flaky", LeaseID: l.LeaseID, Seq: l.Spec.Seq, Err: "simulated shard failure",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Failed {
		t.Fatal("first failure exhausted a budget of 1")
	}

	release := mustLeaseTask(t, coord, "flaky")
	if release.Spec.Seq != l.Spec.Seq {
		t.Fatalf("after worker failure the re-lease handed seq %d, want %d", release.Spec.Seq, l.Spec.Seq)
	}
	ack, err = coord.Result(context.Background(), &ResultRequest{
		CampaignID: coord.ID(), WorkerID: "flaky", LeaseID: release.LeaseID, Seq: release.Spec.Seq, Err: "simulated shard failure",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Failed {
		t.Fatal("second failure should exhaust MaxRetries=1 and fail the campaign")
	}
	if coord.Err() == nil {
		t.Fatal("campaign error not recorded")
	}
}

// TestLeaseReproducibleFailureFailsAtOnce reports a failure the worker
// marks reproducible: the first report fails the campaign with an error
// naming the task, though the retry budget is not spent.
func TestLeaseReproducibleFailureFailsAtOnce(t *testing.T) {
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{LeaseTimeout: time.Minute, MaxRetries: 3})

	l := mustLeaseTask(t, coord, "w")
	ack, err := coord.Result(context.Background(), &ResultRequest{
		CampaignID: coord.ID(), WorkerID: "w", LeaseID: l.LeaseID, Seq: l.Spec.Seq,
		Err: "result over the bound", Reproducible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Failed {
		t.Fatal("a reproducible failure did not fail the campaign")
	}
	want := fmt.Sprintf("task %d failed", l.Spec.Seq)
	if err := coord.Err(); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "result over the bound") {
		t.Fatalf("campaign error %v, want one naming %q and the worker's report", err, want)
	}
}

// TestLeaseWrongCampaignRejected pins the campaign-ID fence that keeps a
// worker from a previous coordinator out of this one's merge.
func TestLeaseWrongCampaignRejected(t *testing.T) {
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{})
	if _, err := coord.Lease(context.Background(), &LeaseRequest{CampaignID: "stale", WorkerID: "ghost"}); err == nil {
		t.Fatal("lease for a stale campaign ID accepted")
	}
	if _, err := coord.Result(context.Background(), &ResultRequest{CampaignID: "stale", WorkerID: "ghost"}); err == nil {
		t.Fatal("result for a stale campaign ID accepted")
	}
}

// TestLeaseWindowRecovers pins the liveness property behind re-leasing:
// even with the dispatch window fully leased out, an expiry hands the
// head task back without consuming a fresh window slot, so the window
// can never wedge shut.
func TestLeaseWindowRecovers(t *testing.T) {
	cfg := baseConfig() // enough shards to overfill the smallest window
	cfg.Workers = 1     // withDefaults floors Lookahead at 8*Workers
	coord, _ := newTestCoordinator(t, cfg, Options{LeaseTimeout: 20 * time.Millisecond, MaxRetries: -1})

	// fill the dispatch window
	granted := map[int]bool{}
	lowest := -1
	for {
		resp, err := coord.Lease(context.Background(), &LeaseRequest{CampaignID: coord.ID(), WorkerID: "w1"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == StatusWait {
			break
		}
		if resp.Status != StatusTask {
			t.Fatalf("lease status = %q", resp.Status)
		}
		seq := resp.Grants[0].Spec.Seq
		granted[seq] = true
		if lowest == -1 || seq < lowest {
			lowest = seq
		}
	}
	if len(granted) == 0 {
		t.Fatal("window admitted no leases")
	}

	time.Sleep(30 * time.Millisecond) // every lease expires

	// the full window must recover: each expired seq re-leases (head of
	// line first) without consuming a fresh window slot
	re := mustLeaseTask(t, coord, "w2")
	if re.Spec.Seq != lowest {
		t.Fatalf("first re-lease handed seq %d, want the head-of-line %d", re.Spec.Seq, lowest)
	}
	reled := map[int]bool{re.Spec.Seq: true}
	for i := 1; i < len(granted); i++ {
		r := mustLeaseTask(t, coord, "w2")
		if !granted[r.Spec.Seq] {
			t.Fatalf("re-lease handed fresh seq %d while expired tasks wait", r.Spec.Seq)
		}
		reled[r.Spec.Seq] = true
	}
	if len(reled) != len(granted) {
		t.Fatalf("re-leased %d distinct seqs, want all %d expired ones", len(reled), len(granted))
	}
}

// TestLeaseBatchedGrants asks for two tasks in one round trip and
// asserts the batch carries two distinct leases; a request without Max
// still gets exactly one grant. tinyConfig cuts exactly three shard
// tasks, so the batch leaves one for the request without Max.
func TestLeaseBatchedGrants(t *testing.T) {
	coord, _ := newTestCoordinator(t, tinyConfig(), Options{LeaseTimeout: time.Minute})

	resp, err := coord.Lease(context.Background(), &LeaseRequest{CampaignID: coord.ID(), WorkerID: "batch", Max: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusTask {
		t.Fatalf("lease status = %q, want %q", resp.Status, StatusTask)
	}
	if len(resp.Grants) != 2 {
		t.Fatalf("got %d grants, want 2", len(resp.Grants))
	}
	seqs := map[int]bool{}
	leases := map[string]bool{}
	for _, g := range resp.Grants {
		seqs[g.Spec.Seq] = true
		leases[g.LeaseID] = true
	}
	if len(seqs) != 2 || len(leases) != 2 {
		t.Fatalf("grants not distinct: %d seqs, %d lease IDs", len(seqs), len(leases))
	}
	if coord.ActiveLeases() != 2 {
		t.Fatalf("ActiveLeases = %d, want 2", coord.ActiveLeases())
	}

	// a request without Max gets exactly one grant
	single := mustLeaseTask(t, coord, "single")
	if seqs[single.Spec.Seq] {
		t.Fatalf("the single grant re-issued an already-leased seq %d", single.Spec.Seq)
	}
}
