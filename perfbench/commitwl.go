package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
)

// The commit workloads: an open loop of all-yes transactions against the
// public commit API, INBAC at n=4, f=1, U=5 ms unless stated otherwise.
//
//   - commit-tcp: 2000 txn/s through one commit.Client (SubmitAt, round-
//     robin coordinators) against 4 commit.Peers on loopback TCP.
//   - commit-geo: 500 txn/s of INBAC on sockets shaped by the us-eu profile
//     (42 ms one-way between regions), U = the profile's suggested timeout.
//     The client and its coordinators P1 and P3 sit in one region, P2 and
//     P4 in the other, so every transaction crosses the WAN and its
//     latency counts the protocol's message delays, as in the paper.
//   - commit-mesh: the same schedule through commit.Cluster.Submit on the
//     in-memory mesh.
//   - commit-crash: commit-tcp at 500 txn/s with coordinators P1-P3 only;
//     P4 is closed a third of the way into the window and restarted on the
//     same address at two thirds.

type commitSpec struct {
	rate   float64
	mesh   bool
	coords []int  // coordinators used round-robin (TCP only)
	crash  bool   // close and restart P4 mid-window
	net    string // geo profile shaping the sockets; "" for plain loopback
}

var commitSpecs = map[string]commitSpec{
	"commit-tcp":   {rate: 2000, coords: []int{1, 2, 3, 4}},
	"commit-geo":   {rate: 500, coords: []int{1, 3}, net: "us-eu"},
	"commit-mesh":  {rate: 2000, mesh: true},
	"commit-crash": {rate: 500, coords: []int{1, 2, 3}, crash: true},
}

const (
	commitU   = 5 * time.Millisecond // U on plain loopback
	warmTxns  = 256
	warmDepth = 32
)

// opts returns the options every process of the workload shares. On a geo
// profile the client is pinned to the first region and U is the profile's
// suggested timeout.
func (s commitSpec) opts() (commit.Options, error) {
	o := commit.Options{Protocol: protocol, F: 1, Timeout: commitU}
	if s.net != "" {
		p, err := live.NamedProfile(s.net)
		if err != nil {
			return o, err
		}
		p.Pin(core.ProcessID(nPeers+1), p.Regions[0])
		o.Net, o.Timeout = p, p.SuggestedTimeout()
	}
	return o, nil
}

// life is the client's own bound on a submission: the coordinator's run
// bound (128U) plus the reply slack (16U), after which the future errors.
func life(o commit.Options) time.Duration { return 144 * o.Timeout }

// commitSys is one booted deployment.
type commitSys struct {
	submit  func(ctx context.Context, txID string, i int) *commit.Txn
	close   func()
	crash   func()       // close P4 (tcp only)
	restart func() error // restart P4 on its address (tcp only)
}

func bootCommit(spec commitSpec, opts commit.Options, l *ledger) (*commitSys, error) {
	if spec.mesh {
		rs := make([]commit.Resource, nPeers)
		for p := range rs {
			rs[p] = participant{p: p, l: l}
		}
		cl, err := commit.NewCluster(rs, opts)
		if err != nil {
			return nil, err
		}
		return &commitSys{
			submit: func(ctx context.Context, txID string, _ int) *commit.Txn { return cl.Submit(ctx, txID) },
			close:  cl.Close,
		}, nil
	}
	addrs, err := loopbackAddrs(nPeers)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	peers := make([]*commit.Peer, nPeers)
	closeAll := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, p := range peers {
			if p != nil {
				p.Close()
			}
		}
	}
	for p := range peers {
		if peers[p], err = commit.NewPeer(p+1, addrs, participant{p: p, l: l}, opts); err != nil {
			closeAll()
			return nil, err
		}
	}
	cl, err := commit.NewClient(nPeers+1, addrs, opts)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &commitSys{
		submit: func(ctx context.Context, txID string, i int) *commit.Txn {
			return cl.SubmitAt(ctx, txID, spec.coords[i%len(spec.coords)])
		},
		close: func() { cl.Close(); closeAll() },
		crash: func() {
			mu.Lock()
			defer mu.Unlock()
			peers[nPeers-1].Close()
			peers[nPeers-1] = nil
		},
		restart: func() error {
			// The old listener's port may take a moment to free up.
			var err error
			for try := 0; try < 50; try++ {
				var p *commit.Peer
				if p, err = commit.NewPeer(nPeers, addrs, participant{p: nPeers - 1, l: l}, opts); err == nil {
					mu.Lock()
					peers[nPeers-1] = p
					mu.Unlock()
					return nil
				}
				time.Sleep(20 * time.Millisecond)
			}
			return fmt.Errorf("restart P%d: %w", nPeers, err)
		},
	}, nil
}

// warmCommit runs warmTxns transactions, warmDepth at a time, and waits
// for them: connections dialed, pools and maps grown. It returns how many
// failed; a failed warm-up transaction is the program's behaviour, not a
// reason to stop.
func warmCommit(sys *commitSys, tag string) int {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < warmDepth; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < warmTxns; i += warmDepth {
				if _, err := sys.submit(ctx, fmt.Sprintf("%s-w%d", tag, i), i).Wait(ctx); err != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return int(failed.Load())
}

// runCommit measures one commit workload.
func runCommit(cfg config, spec commitSpec) (*measurement, error) {
	m := &measurement{cfg: cfg}
	opts, err := spec.opts()
	if err != nil {
		return nil, err
	}
	var sys *commitSys
	err = m.timeSetups(func(k int) (func(), error) {
		l := newLedger(cfg.traced)
		s, err := bootCommit(spec, opts, l)
		if err != nil {
			return nil, err
		}
		if failed := warmCommit(s, fmt.Sprintf("s%d", k)); failed > 0 {
			m.notes = append(m.notes, fmt.Sprintf("setup %d: %d of %d warm-up transactions failed", k, failed, warmTxns))
		}
		sys, m.ledger = s, l
		return s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()

	sched := arrivals(cfg.seed, spec.rate, cfg.window)
	m.recs = make([]*txnRec, len(sched))
	for i := range sched {
		m.recs[i] = &txnRec{id: fmt.Sprintf("t%d", i)}
		if !spec.mesh {
			m.recs[i].coord = spec.coords[i%len(spec.coords)]
		}
	}
	var down, up time.Duration
	if spec.crash {
		down, up = faultWindow(cfg.seed, cfg.window)
		m.notes = append(m.notes, fmt.Sprintf("fault: P4 down at %v, up at %v of a %v window", down, up, cfg.window))
		// P4 need not decide a transaction whose life overlaps its outage.
		m.live = func(i, p int) bool {
			d := time.Duration(m.recs[i].due - m.start)
			return p != nPeers-1 || d+life(opts) < down || d > up
		}
	}
	drain := 2*time.Second + life(opts)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+drain+5*time.Second)
	defer cancel()

	epoch := m.begin()
	for i, d := range sched {
		m.recs[i].due = m.start + int64(d)
	}
	var faultErr error
	var faults sync.WaitGroup
	if spec.crash {
		faults.Add(1)
		go func() {
			defer faults.Done()
			time.Sleep(time.Until(epoch.Add(down)))
			sys.crash()
			time.Sleep(time.Until(epoch.Add(up)))
			faultErr = sys.restart()
		}()
	}
	waiters := openLoop(m.recs, func(i int) *commit.Txn {
		return sys.submit(ctx, m.recs[i].id, i)
	})
	time.Sleep(time.Until(epoch.Add(cfg.window)))
	m.end()
	faults.Wait()
	if faultErr != nil {
		return nil, faultErr
	}
	deadline := epoch.Add(cfg.window + drain)
	waitUntil(waiters, deadline)
	m.settle(deadline)
	return m, nil
}

// openLoop submits recs[i] at its due time from one scheduling goroutine,
// recording when each was actually sent and when its future resolved. It
// returns once every transaction was submitted; the WaitGroup completes
// when every future has resolved.
func openLoop(recs []*txnRec, submit func(i int) *commit.Txn) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i, r := range recs {
		if d := time.Duration(r.due - now()); d > 0 {
			time.Sleep(d)
		}
		r.sent = now()
		t := submit(i)
		wg.Add(1)
		go func(r *txnRec) {
			defer wg.Done()
			<-t.Done()
			if err := t.Err(); err != nil {
				r.err = err.Error()
			}
			r.resolve(now(), outcomeOf(t.Committed(), t.Err()))
		}(r)
	}
	return &wg
}

func outcomeOf(committed bool, err error) int32 {
	switch {
	case errors.Is(err, commit.ErrAgreementViolation):
		return outViolation
	case err != nil:
		return outError
	case committed:
		return outCommit
	}
	return outAbort
}

// waitUntil waits for wg, giving up at deadline.
func waitUntil(wg *sync.WaitGroup, deadline time.Time) {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
	}
}

// loopbackAddrs reserves n distinct loopback addresses by binding and
// releasing ephemeral ports (every peer needs the full list up front).
func loopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve address: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}
