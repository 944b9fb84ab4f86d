package commit

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// ErrAgreementViolation is wrapped into the error Commit returns when the
// cross-peer agreement check fails — the one error callers may want to
// tell apart (errors.Is), e.g. to keep a measurement run going while the
// auditor records the violation.
var ErrAgreementViolation = errors.New("commit: agreement violation")

// Cluster runs n participants in one address space over an in-memory
// network: n Peers on one live.Mesh, the same participant runtime a TCP
// deployment runs. It is the quickest way to use the library and the
// substrate of the examples. Commit runs one protocol instance
// synchronously; Submit and CommitMany run many concurrently through the
// pipeline (see pipeline.go).
type Cluster struct {
	opts      Options
	resources []Resource
	mesh      *live.Mesh
	peers     []*Peer // peers[i] votes through resources[i].Prepare

	mu     sync.Mutex
	closed bool
	seq    int

	// txID bookkeeping for the documented reuse rule: an ID may not be
	// resubmitted while it is in flight, nor after it decided (instances are
	// routed by txID, so reuse would cross-wire two transactions).
	inflight map[string]struct{}
	finished *boundedSet

	// Pipeline state (pipeline.go): a lazily-started dispatcher pulls
	// submissions off queue and runs them with at most opts.MaxInFlight
	// transactions in flight.
	queue       []*Txn
	qcond       *sync.Cond
	dispatching bool
	stop        chan struct{}
}

// NewCluster builds a cluster with one participant per resource.
func NewCluster(resources []Resource, opts Options) (*Cluster, error) {
	n := len(resources)
	opts, err := opts.withDefaults(n)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts: opts, resources: resources, mesh: live.NewMesh(), stop: make(chan struct{}),
		inflight: make(map[string]struct{}), finished: newBoundedSet(),
	}
	if opts.Net != nil {
		sh := opts.Net.Shaper(time.Now())
		c.mesh.Latency = sh.Delay
		c.mesh.Drop = sh.Drop
	}
	c.qcond = sync.NewCond(&c.mu)
	for i, r := range resources {
		if r == nil {
			return nil, fmt.Errorf("%w (participant %d)", ErrNilResource, i+1)
		}
		// The peer only votes: the runner settles every transaction
		// (finish).
		id := core.ProcessID(i + 1)
		p := newPeer(id, n, c.mesh.Endpoint(id), ResourceFunc{PrepareFn: r.Prepare}, opts)
		p.owned = true
		c.peers = append(c.peers, p)
	}
	return c, nil
}

// Mesh exposes the underlying network for latency/partition injection in
// tests and demos.
func (c *Cluster) Mesh() *live.Mesh { return c.mesh }

// txnRun is one transaction's lifecycle across every peer: spontaneous
// start, decision gather, agreement check, resource callbacks and
// retirement. Commit runs one synchronously; the pipeline dispatcher runs
// many concurrently.
type txnRun struct {
	c     *Cluster
	txID  string
	insts []*live.Instance
	begun time.Time
}

// reserveTxID allocates a fresh transaction ID when the caller passed ""
// (skipping any ID a caller used explicitly) and registers it as in flight.
// A caller-supplied ID that is already in flight or recently decided is
// rejected: instances are routed by txID, so reuse would cross-wire two
// transactions.
func (c *Cluster) reserveTxID(txID string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if txID == "" {
		for {
			c.seq++
			txID = fmt.Sprintf("tx-%d", c.seq)
			if !c.used(txID) {
				break
			}
		}
	} else if _, ok := c.inflight[txID]; ok {
		return "", fmt.Errorf("commit: txID %q is already in flight", txID)
	} else if c.finished.has(txID) {
		return "", fmt.Errorf("commit: txID %q was already decided", txID)
	}
	c.inflight[txID] = struct{}{}
	return txID, nil
}

func (c *Cluster) used(txID string) bool {
	if _, ok := c.inflight[txID]; ok {
		return true
	}
	return c.finished.has(txID)
}

// unreserve releases a reserved txID that never reached a protocol instance
// (begin failed, or the submission expired in the queue): the ID may be
// reused.
func (c *Cluster) unreserve(txID string) {
	c.mu.Lock()
	delete(c.inflight, txID)
	c.mu.Unlock()
}

// markFinished moves a decided txID from the in-flight set to the bounded
// finished set, where resubmissions keep being rejected.
func (c *Cluster) markFinished(txID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, txID)
	c.finished.add(txID, core.Commit) // the value is unused: membership is the rule
}

// begin starts txID's instance on every peer directly, with no begin
// envelope: the paper's spontaneous start (footnote 13). Each peer votes
// through its resource's Prepare; a peer that a protocol message reached
// first already runs the instance, and begin joins it.
func (c *Cluster) begin(txID string) (*txnRun, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("commit: cluster closed")
	}
	r := &txnRun{c: c, txID: txID, insts: make([]*live.Instance, len(c.peers))}
	for i, p := range c.peers {
		run := p.ensureInstance(txID)
		if run == nil {
			return nil, fmt.Errorf("commit: cluster closed")
		}
		r.insts[i] = run.Instance
	}
	r.begun = time.Now()
	return r, nil
}

// finish gathers every peer's decision, applies the resource callbacks, and
// retires the instances. Every peer is waited for before the cross-peer
// agreement check runs, so a violation dump holds the full decision vector
// (and every peer's decide event is in the flight recorder) rather than
// stopping at the first mismatching pair.
func (r *txnRun) finish(ctx context.Context) (bool, error) {
	vals := make([]core.Value, len(r.insts))
	defer func() {
		// An undecided peer (the run failed) is remembered as aborted: a
		// late envelope must not resurrect its instance.
		for i, p := range r.c.peers {
			r.insts[i].Close()
			p.retire(r.txID, vals[i])
		}
		r.c.markFinished(r.txID)
	}()

	proto := string(r.c.opts.Protocol)
	for i, p := range r.c.peers {
		v, err := r.insts[i].Wait(ctx)
		if err != nil {
			obs.M.Counter("commit.abort.infra." + proto).Add(1)
			// An infra abort means this peer never decided within its
			// deadline: tell the auditor so the transaction is audited
			// under a failure class, not failure-free.
			if a := obs.ActiveAuditor(); a != nil {
				a.Suspect(r.txID, p.id, err.Error())
			}
			return false, err
		}
		vals[i] = v
	}
	first := vals[0]
	allYes := true // every resource voted commit (abort-reason attribution)
	for i, v := range vals {
		if v != first {
			// Cannot happen for protocols whose contract includes
			// agreement in the executions the deployment can produce;
			// surfacing it — with the full interleaving that produced
			// it — beats hiding it.
			detail := r.decisionVector(vals)
			obs.ReportAnomaly("cluster-agreement-violation", r.txID, detail)
			return false, fmt.Errorf("%w on %s: %s", ErrAgreementViolation, r.txID, detail)
		}
		allYes = allYes && r.insts[i].Vote() == core.Commit
	}

	// Latency by protocol and decide path (the initiating peer's path;
	// "" for protocols that do not annotate one).
	path := r.insts[0].DecidePath()
	if path == "" {
		path = "default"
	}
	obs.M.Histogram("commit.latency_ns." + proto + "." + path).Record(int64(time.Since(r.begun)))
	if first == core.Commit {
		obs.M.Counter("commit.committed." + proto).Add(1)
	} else if allYes {
		// All resources voted yes, yet the decision is abort: an indulgent
		// protocol's legal reaction to a violated timing bound.
		obs.M.Counter("commit.abort.timing." + proto).Add(1)
	} else {
		// At least one "no" vote (e.g. a kv conflict): a normal abort.
		obs.M.Counter("commit.abort.vote." + proto).Add(1)
	}

	for _, res := range r.c.resources {
		if first == core.Commit {
			res.Commit(r.txID)
		} else {
			res.Abort(r.txID)
		}
	}
	return first == core.Commit, nil
}

// decisionVector renders every peer's decision and decide path, the
// anomaly detail line of an agreement violation:
// "P1=commit(fast) P2=abort(consensus) ...".
func (r *txnRun) decisionVector(vals []core.Value) string {
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		path := r.insts[i].DecidePath()
		if path == "" {
			path = "?"
		}
		fmt.Fprintf(&b, "%s=%s(%s)", r.c.peers[i].id, v, path)
	}
	return b.String()
}

// Commit runs one atomic commit instance across all participants: every
// resource is asked to Prepare (its vote), the configured protocol decides,
// and Commit/Abort callbacks fire on every participant. It returns the
// decision (true = committed).
//
// The returned error reports infrastructure problems (context expiry before
// a decision, closed cluster, a txID that is already in flight or recently
// decided); a unanimous abort is a normal outcome, not an error. A nil ctx
// defaults to context.Background().
func (c *Cluster) Commit(ctx context.Context, txID string) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	txID, err := c.reserveTxID(txID)
	if err != nil {
		return false, err
	}
	r, err := c.begin(txID)
	if err != nil {
		c.unreserve(txID)
		return false, err
	}
	return r.finish(ctx)
}

// Close shuts the cluster down; in-flight Commit calls may fail, and queued
// pipeline submissions resolve with an error.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.qcond.Broadcast()
	c.mu.Unlock()
	for _, p := range c.peers {
		p.Close()
	}
}
