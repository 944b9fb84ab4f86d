package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/kv"
)

// kv-geo: a closed loop against 4 kv shards on loopback TCP shaped by the
// us-eu profile (42 ms one-way between regions). One kv.OpenRemote client
// per region keeps kvWorkers transactions in flight; each transaction
// reads kvReads Zipf-chosen keys with one GetMulti and increments one of
// them. The keyspace is four times the client read cache, so the cache
// both hits and misses.

const (
	kvProfile = "us-eu"
	kvClients = 2
	kvWorkers = 32 // per client
	kvKeys    = 4 * 4096
	kvTheta   = 0.7
	kvReads   = 4
	kvWarm    = 2 // warm-up transactions per worker
	// kvDrain bounds how long the window's last transactions may take to
	// resolve, and every shard to apply them.
	kvDrain = 10 * time.Second
)

func kvKey(rank int) string { return "k" + strconv.Itoa(rank) }

// shardRes is the benchmark's wrapper around one kv shard, installed as
// the peer's commit.HostedResource exactly as kv.ServeShard installs the
// bare shard. It forwards every call, reports votes and decisions to the
// ledger, and on traced runs times each callback.
type shardRes struct {
	sh *kv.Shard
	p  int
	l  *ledger

	mu    sync.Mutex
	spans map[string][]int64 // callback name -> durations, traced runs
}

func (r *shardRes) span(name string, t0 time.Time) {
	if !r.l.traced {
		return
	}
	d := int64(time.Since(t0))
	r.mu.Lock()
	r.spans[name] = append(r.spans[name], d)
	r.mu.Unlock()
}

func (r *shardRes) Prepare(txID string) bool {
	t0 := time.Now()
	ok := r.sh.Prepare(txID)
	r.span("prepare", t0)
	r.l.prepare(txID, r.p, ok)
	return ok
}

func (r *shardRes) Commit(txID string) {
	t0 := time.Now()
	r.sh.Commit(txID)
	r.span("commit", t0)
	r.l.decide(txID, r.p, decCommit)
}

func (r *shardRes) Abort(txID string) {
	r.sh.Abort(txID)
	r.l.decide(txID, r.p, decAbort)
}

func (r *shardRes) Stage(txID string, m commit.Message) error {
	t0 := time.Now()
	err := r.sh.Stage(txID, m)
	r.span("stage", t0)
	return err
}

func (r *shardRes) Query(m commit.Message) (commit.Message, error) {
	t0 := time.Now()
	reply, err := r.sh.Query(m)
	r.span("query", t0)
	return reply, err
}

// kvSys is one booted kv deployment.
type kvSys struct {
	addrs  []string
	opts   commit.Options
	peers  []*commit.Peer
	shards []*shardRes
	stores []*kv.Store
	done   []*txnRec // every finished transaction, for the state check
	mu     sync.Mutex
}

func (s *kvSys) close() {
	for _, st := range s.stores {
		st.Close()
	}
	for _, p := range s.peers {
		p.Close()
	}
}

func bootKV(l *ledger) (*kvSys, error) {
	profile, err := live.NamedProfile(kvProfile)
	if err != nil {
		return nil, err
	}
	// One client per region, pinned before any shaped traffic starts.
	for c := 0; c < kvClients; c++ {
		profile.Pin(core.ProcessID(nPeers+1+c), profile.Regions[c%len(profile.Regions)])
	}
	s := &kvSys{opts: commit.Options{Protocol: protocol, F: 1, Net: profile}}
	if s.addrs, err = loopbackAddrs(nPeers); err != nil {
		return nil, err
	}
	for p := 0; p < nPeers; p++ {
		res := &shardRes{sh: kv.NewShard(p), p: p, l: l, spans: map[string][]int64{}}
		peer, err := commit.NewPeer(p+1, s.addrs, res, s.opts)
		if err != nil {
			s.close()
			return nil, err
		}
		s.peers, s.shards = append(s.peers, peer), append(s.shards, res)
	}
	for c := 0; c < kvClients; c++ {
		st, err := kv.OpenRemote(nPeers+1+c, s.addrs, s.opts)
		if err != nil {
			s.close()
			return nil, err
		}
		s.stores = append(s.stores, st)
	}
	return s, nil
}

// kvIncrement runs one transaction: read kvReads keys, increment one.
func kvIncrement(ctx context.Context, st *kv.Store, z *zipf, r *txnRec) {
	ranks := z.distinct(kvReads)
	keys := make([]string, len(ranks))
	for i, k := range ranks {
		keys[i] = kvKey(k)
	}
	j := z.intn(len(keys))
	r.key = keys[j]

	t := st.Txn().WithContext(ctx)
	r.due = now()
	vals, _, err := t.GetMulti(keys...)
	t1 := now()
	r.read = t1 - r.due
	if err != nil {
		r.resolve(t1, outError)
		return
	}
	cur := 0
	if vals[j] != "" {
		if cur, err = strconv.Atoi(vals[j]); err != nil {
			r.resolve(now(), outError)
			return
		}
	}
	t.Put(keys[j], strconv.Itoa(cur+1))
	r.sent = now()
	p, err := t.Submit(ctx)
	t2 := now()
	r.submit = t2 - r.sent
	if err != nil {
		r.resolve(t2, outError)
		return
	}
	r.id = p.TxID()
	ok, err := p.Wait(ctx)
	t3 := now()
	r.wait = t3 - t2
	r.resolve(t3, outcomeOf(ok, err))
}

// closedLoop runs kvWorkers workers per client until stop (a now()
// reading), each running transactions back to back; it returns every
// transaction started, once all have finished.
func (s *kvSys) closedLoop(ctx context.Context, seed int64, stop int64, limit int) []*txnRec {
	var wg sync.WaitGroup
	per := make([][]*txnRec, kvClients*kvWorkers)
	for c := 0; c < kvClients; c++ {
		for w := 0; w < kvWorkers; w++ {
			wg.Add(1)
			go func(c, w int) {
				defer wg.Done()
				z := newZipf(workerSeed(seed, c, w), kvKeys, kvTheta)
				slot := &per[c*kvWorkers+w]
				for now() < stop && (limit == 0 || len(*slot) < limit) {
					r := &txnRec{}
					kvIncrement(ctx, s.stores[c], z, r)
					*slot = append(*slot, r)
				}
			}(c, w)
		}
	}
	wg.Wait()
	var all []*txnRec
	for _, rs := range per {
		all = append(all, rs...)
	}
	s.mu.Lock()
	s.done = append(s.done, all...)
	s.mu.Unlock()
	return all
}

// runKV measures kv-geo.
func runKV(cfg config) (*measurement, error) {
	m := &measurement{cfg: cfg}
	var sys *kvSys
	err := m.timeSetups(func(k int) (func(), error) {
		l := newLedger(cfg.traced)
		s, err := bootKV(l)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), kvDrain)
		defer cancel()
		failed := 0
		for _, r := range s.closedLoop(ctx, -cfg.seed-int64(k)-1, 1<<62, kvWarm) {
			if out := r.out.Load(); out == outError || out == outNone {
				failed++
			}
		}
		if failed > 0 {
			m.notes = append(m.notes, fmt.Sprintf("setup %d: %d warm-up transactions failed", k, failed))
		}
		sys, m.ledger = s, l
		return s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer sys.close()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+kvDrain)
	defer cancel()
	epoch := m.begin()
	stop := m.start + int64(cfg.window)
	var recs []*txnRec
	loopDone := make(chan struct{})
	go func() {
		recs = sys.closedLoop(ctx, cfg.seed, stop, 0)
		close(loopDone)
	}()
	time.Sleep(time.Until(epoch.Add(cfg.window)))
	m.end()
	<-loopDone // every worker is bounded by ctx
	m.recs = recs
	for i, r := range m.recs {
		if r.id == "" {
			// Failed before it had a txID: give it one no participant
			// reports on, so it counts once, as a failure.
			r.id = fmt.Sprintf("unsubmitted-%d", i)
		}
	}
	m.settle(time.Now().Add(kvDrain))
	m.shardSpans = map[string][]int64{}
	for _, sh := range sys.shards {
		sh.mu.Lock()
		for name, ds := range sh.spans {
			m.shardSpans[name] = append(m.shardSpans[name], ds...)
		}
		sh.mu.Unlock()
	}
	if err := sys.checkState(m); err != nil {
		return nil, err
	}
	return m, nil
}

// checkState reads every key back through a fresh client and checks it
// against the increments the clients saw commit: each key must equal its
// own committed-increment count, and the counters must sum to the total.
// A transaction whose client saw an error has an outcome only the shards
// know; the ledger's decision stands in for it.
func (s *kvSys) checkState(m *measurement) error {
	want := make(map[string]int)
	total := 0
	s.mu.Lock()
	for _, r := range s.done {
		committed := r.out.Load() == outCommit
		if r.out.Load() == outError || r.out.Load() == outNone {
			e, _ := m.ledger.lookup(r.id)
			for p := 0; p < nPeers; p++ {
				committed = committed || e.dec[p] == decCommit
			}
		}
		if committed {
			want[r.key]++
			total++
		}
	}
	s.mu.Unlock()

	st, err := kv.OpenRemote(nPeers+1+kvClients, s.addrs, s.opts)
	if err != nil {
		return fmt.Errorf("read-back client: %w", err)
	}
	defer st.Close()
	const chunk = 1024
	got := make([]int, kvKeys)
	errs := make([]error, kvKeys/chunk)
	var wg sync.WaitGroup
	for c := 0; c < kvKeys/chunk; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := make([]string, chunk)
			for i := range keys {
				keys[i] = kvKey(c*chunk + i)
			}
			ctx, cancel := context.WithTimeout(context.Background(), kvDrain)
			defer cancel()
			vals, _, err := st.Txn().WithContext(ctx).GetMulti(keys...)
			if err != nil {
				errs[c] = err
				return
			}
			for i, v := range vals {
				if v == "" {
					continue
				}
				if got[c*chunk+i], err = strconv.Atoi(v); err != nil {
					errs[c] = fmt.Errorf("key %s holds %q", keys[i], v)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Unread state cannot be checked: the run is not correct.
			m.failures = append(m.failures, fmt.Sprintf("kv read-back: %v", err))
			return nil
		}
	}
	sum, bad := 0, 0
	for rank, v := range got {
		sum += v
		if w := want[kvKey(rank)]; v != w {
			if bad < 5 {
				m.failures = append(m.failures, fmt.Sprintf("key %s reads %d, %d committed increments", kvKey(rank), v, w))
			}
			bad++
		}
	}
	if sum != total || bad > 0 {
		m.failures = append(m.failures, fmt.Sprintf("kv state: counters sum to %d, %d committed increments, %d keys wrong", sum, total, bad))
	}
	m.notes = append(m.notes, fmt.Sprintf("kv read-back: %d keys, counters sum to %d = %d committed increments (warm-up included)", kvKeys, sum, total))
	return nil
}
