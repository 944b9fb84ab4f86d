package commit

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/wire"
)

// retireGraceUnits is how many timeout units a peer keeps a decided
// instance alive before retiring it. A peer on its own only knows its own
// decision, and other peers may still need its help to terminate
// (helper/termination messages). After the grace, a straggler sees this
// peer as crashed for that instance — the failure model the protocols
// already tolerate. A Cluster, which sees every decision, retires its peers'
// instances as soon as all n have decided.
const retireGraceUnits = 8

// retiredHistory is how many recently retired transaction IDs a peer
// remembers (with their outcomes) so that straggler messages (a helper reply
// landing after the decision, a retransmission racing the cleanup) are
// dropped instead of resurrecting an instance, and Wait replays still
// answer. A Cluster remembers as many finished IDs for its reuse rule.
const retiredHistory = 4096

// boundedSet remembers the most recent retiredHistory ids, each with a
// value, evicting FIFO: the one idiom behind straggler dropping and outcome
// replay (Peer.decided) and txID-reuse rejection (Cluster.finished).
// Callers synchronize access.
type boundedSet struct {
	m     map[string]core.Value
	order []string
}

func newBoundedSet() *boundedSet { return &boundedSet{m: make(map[string]core.Value)} }

func (s *boundedSet) get(id string) (core.Value, bool) {
	v, ok := s.m[id]
	return v, ok
}

func (s *boundedSet) has(id string) bool {
	_, ok := s.m[id]
	return ok
}

// add inserts id with value v, evicting the oldest entry beyond
// retiredHistory. Idempotent: the first value sticks.
func (s *boundedSet) add(id string, v core.Value) {
	if s.has(id) {
		return
	}
	s.m[id] = v
	s.order = append(s.order, id)
	if len(s.order) > retiredHistory {
		delete(s.m, s.order[0])
		s.order = s.order[1:]
	}
}

// stageTTLUnits bounds how long a staged-but-never-begun transaction may
// hold its footprint (intents, staged writes) on a hosted resource: if the
// protocol run has not arrived within stageTTLUnits timeout units — the
// client crashed between stage and go, or the go was partitioned away —
// the peer aborts the stage and poisons the txID so a pathologically late
// begin votes abort instead of vacuously committing a transaction whose
// writes were dropped. Generous relative to the client's stage→go hop
// (one WAN round trip).
const stageTTLUnits = 64

// coordinateUnits bounds a client-initiated commit run on the coordinating
// peer, so a resultMsg always goes back even if the protocol cannot
// terminate (e.g. no correct majority): far above any decision time, which
// is a few timeout units.
const coordinateUnits = 128

// NewPeer input validation errors, matchable with errors.Is.
var (
	// ErrNilResource reports a nil Resource.
	ErrNilResource = errors.New("commit: resource must not be nil")
	// ErrPeerID reports a peer id outside 1..len(addrs).
	ErrPeerID = errors.New("commit: peer id out of range")
	// ErrBadAddrs reports an empty or duplicated peer address.
	ErrBadAddrs = errors.New("commit: bad peer address list")
)

// beginPath is the reserved envelope path announcing a transaction to peers
// that have not started an instance for it yet.
const beginPath = "\x00begin"

// beginMsg tells a peer to Prepare and start its instance for Envelope.TxID.
type beginMsg struct{}

// Kind implements core.Message.
func (beginMsg) Kind() string { return "BEGIN" }

// WireID implements core.Wire (commit block, ID 1).
func (beginMsg) WireID() uint16 { return 1 }

// MarshalWire implements core.Wire.
func (beginMsg) MarshalWire(b []byte) []byte { return b }

// UnmarshalWire implements core.Wire.
func (beginMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return beginMsg{}, d.Err()
}

// decidePath is the reserved envelope path carrying a peer's decision to the
// others' auditors. It is sent only while an auditor is installed, so
// observability never spends the protocol's message budget; the auditor's
// agreement predicate is the cross-check.
const decidePath = "\x00decide"

// decideMsg announces that From decided V for Envelope.TxID.
type decideMsg struct {
	V core.Value
}

// Kind implements core.Message.
func (decideMsg) Kind() string { return "DECIDE" }

// WireID implements core.Wire (commit block, ID 2).
func (decideMsg) WireID() uint16 { return 2 }

// MarshalWire implements core.Wire.
func (m decideMsg) MarshalWire(b []byte) []byte { return wire.AppendUvarint(b, uint64(m.V)) }

// UnmarshalWire implements core.Wire.
func (decideMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return decideMsg{V: core.Value(d.Uvarint())}, d.Err()
}

// The client-facing paths: a commit.Client (not itself a protocol
// participant) speaks to peers over these reserved paths to stage
// footprints on hosted resources, start the commit, read outside
// transactions, and learn outcomes. See client.go for the driving side.
const (
	helloPath      = "\x00hello"      // helloMsg: announce the client's listen address
	stagePath      = "\x00stage"      // payload is the resource's own footprint message
	stageAckPath   = "\x00stageack"   // stageAckMsg: stage accepted or refused
	goPath         = "\x00go"         // goMsg: all stages acked; run the commit
	stageGoPath    = "\x00stagego"    // stageGoMsg: footprint piggybacked on the go leg
	resultPath     = "\x00result"     // resultMsg: the coordinator's local decision
	queryPath      = "\x00query"      // payload is the resource's read request
	queryReplyPath = "\x00queryreply" // payload is the resource's read reply
	unstagePath    = "\x00unstage"    // unstageMsg: drop a staged, never-begun txn
)

// helloMsg announces the sending client's listen address so the peer can
// route replies (peers are booted knowing only each other).
type helloMsg struct {
	Addr string
}

// Kind implements core.Message.
func (helloMsg) Kind() string { return "HELLO" }

// WireID implements core.Wire (commit block, ID 3).
func (helloMsg) WireID() uint16 { return 3 }

// MarshalWire implements core.Wire.
func (m helloMsg) MarshalWire(b []byte) []byte { return wire.AppendString(b, m.Addr) }

// UnmarshalWire implements core.Wire.
func (helloMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return helloMsg{Addr: d.String()}, d.Err()
}

// stageAckMsg acknowledges a stage; Err != "" means the resource refused it
// and the client must abort the transaction.
type stageAckMsg struct {
	Err string
}

// Kind implements core.Message.
func (stageAckMsg) Kind() string { return "STAGEACK" }

// WireID implements core.Wire (commit block, ID 4).
func (stageAckMsg) WireID() uint16 { return 4 }

// MarshalWire implements core.Wire.
func (m stageAckMsg) MarshalWire(b []byte) []byte { return wire.AppendString(b, m.Err) }

// UnmarshalWire implements core.Wire.
func (stageAckMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return stageAckMsg{Err: d.String()}, d.Err()
}

// goMsg asks the receiving peer to coordinate the commit of Envelope.TxID
// (every involved peer has acked its stage) and reply with resultMsg.
type goMsg struct{}

// Kind implements core.Message.
func (goMsg) Kind() string { return "GO" }

// WireID implements core.Wire (commit block, ID 5).
func (goMsg) WireID() uint16 { return 5 }

// MarshalWire implements core.Wire.
func (goMsg) MarshalWire(b []byte) []byte { return b }

// UnmarshalWire implements core.Wire.
func (goMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return goMsg{}, d.Err()
}

// resultMsg reports the coordinator's local decision for Envelope.TxID back
// to the client; Err != "" reports an infrastructure failure instead.
type resultMsg struct {
	V   core.Value
	Err string
}

// Kind implements core.Message.
func (resultMsg) Kind() string { return "RESULT" }

// WireID implements core.Wire (commit block, ID 6).
func (resultMsg) WireID() uint16 { return 6 }

// MarshalWire implements core.Wire.
func (m resultMsg) MarshalWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.V))
	return wire.AppendString(b, m.Err)
}

// UnmarshalWire implements core.Wire.
func (resultMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return resultMsg{V: core.Value(d.Uvarint()), Err: d.String()}, d.Err()
}

// stageGoMsg piggybacks the coordinator's own footprint on the go leg: the
// stage-then-ack barrier exists because cross-connection delivery is not
// FIFO, but a footprint riding *inside* the message that starts the commit
// trivially arrives before the protocol does — so the client saves the
// coordinator's stage round trip (and for a single-peer footprint, the
// whole barrier). Fp is a live.MarshalMessage encoding of the resource's
// footprint message; empty means the coordinator hosts no slice of this
// transaction (every footprint was staged two-phase elsewhere).
type stageGoMsg struct {
	Fp []byte
}

// Kind implements core.Message.
func (stageGoMsg) Kind() string { return "STAGEGO" }

// WireID implements core.Wire. The commit block (1..7) is full, so this
// takes 83, adjacent to the kv client-path block (80..82) it serves.
func (stageGoMsg) WireID() uint16 { return 83 }

// MarshalWire implements core.Wire.
func (m stageGoMsg) MarshalWire(b []byte) []byte { return wire.AppendBytes(b, m.Fp) }

// UnmarshalWire implements core.Wire.
func (stageGoMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return stageGoMsg{Fp: d.Bytes()}, d.Err()
}

// unstageMsg drops a staged transaction that will never begin (a sibling
// stage was refused). Only honored before the protocol instance starts.
type unstageMsg struct{}

// Kind implements core.Message.
func (unstageMsg) Kind() string { return "UNSTAGE" }

// WireID implements core.Wire (commit block, ID 7).
func (unstageMsg) WireID() uint16 { return 7 }

// MarshalWire implements core.Wire.
func (unstageMsg) MarshalWire(b []byte) []byte { return b }

// UnmarshalWire implements core.Wire.
func (unstageMsg) UnmarshalWire(d *wire.Decoder) (core.Message, error) {
	return unstageMsg{}, d.Err()
}

func init() {
	live.RegisterWire(beginMsg{})
	live.RegisterWire(decideMsg{})
	live.RegisterWire(helloMsg{})
	live.RegisterWire(stageAckMsg{})
	live.RegisterWire(goMsg{})
	live.RegisterWire(stageGoMsg{})
	live.RegisterWire(resultMsg{})
	live.RegisterWire(unstageMsg{})
}

// Peer is one participant of the commit protocol: the library's one
// participant runtime. NewPeer puts it in its own address space, connected
// to the others over TCP: the realistic deployment shape. A Cluster is n
// peers on an in-memory mesh. Any peer may initiate a transaction with
// Commit; the other peers vote via their Resource and apply the outcome via
// its callbacks.
type Peer struct {
	id        core.ProcessID
	n         int
	opts      Options
	newModule func(core.ProcessID) core.Module // opts.factory(), built once
	res       Resource
	tr        live.Transport

	mu sync.Mutex
	// instances holds every live run, registered before its Prepare runs:
	// a concurrent caller finds it and waits on it, and the Instance
	// buffers deliveries that arrive before Start.
	instances map[string]*peerRun
	decided   *boundedSet // outcomes of retired transactions
	closed    bool

	// owned hands settling to the peer's owner: a Cluster's runner sees
	// every decision, applies the outcome once all n agree, and retires
	// the instances then, never while another peer may still need their
	// help. Its peers share one process and one auditor, so they have no
	// decision to announce either.
	owned bool

	// Hosting mode (res implements HostedResource): staged remembers
	// transactions whose footprint arrived but whose protocol run has not,
	// for the stage-TTL reclaim.
	staged map[string]struct{}

	debug *http.Server // optional observability endpoint (ServeDebug)
}

// peerRun is this peer's run of one transaction: the protocol instance,
// and a signal closed once settle has applied the outcome to the resource
// (never, on an owned peer, whose owner applies it).
type peerRun struct {
	*live.Instance
	settled chan struct{}
}

// NewPeer starts participant id (1-based); addrs[i-1] is Pi's address, and
// this peer listens on addrs[id-1]. If resource implements HostedResource,
// the peer also serves remote clients (see Client): footprint staging,
// client-initiated commits, and one-shot queries.
func NewPeer(id int, addrs []string, resource Resource, opts Options) (*Peer, error) {
	if resource == nil {
		return nil, fmt.Errorf("%w (peer %d)", ErrNilResource, id)
	}
	if err := validateAddrs(addrs); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults(len(addrs))
	if err != nil {
		return nil, err
	}
	if id < 1 || id > len(addrs) {
		return nil, fmt.Errorf("%w: %d not in 1..%d", ErrPeerID, id, len(addrs))
	}
	tcp, err := live.NewTCP(core.ProcessID(id), addrs)
	if err != nil {
		return nil, err
	}
	if opts.Net != nil {
		tcp.SetShaper(opts.Net.Shaper(time.Now()))
	}
	return newPeer(core.ProcessID(id), len(addrs), tcp, resource, opts), nil
}

// newPeer builds participant id of n over any transport; opts must already
// carry its defaults.
func newPeer(id core.ProcessID, n int, tr live.Transport, res Resource, opts Options) *Peer {
	p := &Peer{
		id: id, n: n, opts: opts, newModule: opts.factory(), res: res, tr: tr,
		instances: make(map[string]*peerRun),
		decided:   newBoundedSet(),
		staged:    make(map[string]struct{}),
	}
	tr.SetHandler(p.deliver)
	return p
}

// validateAddrs rejects empty and duplicated peer addresses up front — both
// would otherwise surface as baffling runtime behavior (dials to "", two
// peers stealing each other's traffic).
func validateAddrs(addrs []string) error {
	seen := make(map[string]int, len(addrs))
	for i, a := range addrs {
		if a == "" {
			return fmt.Errorf("%w: addrs[%d] is empty", ErrBadAddrs, i)
		}
		if j, ok := seen[a]; ok {
			return fmt.Errorf("%w: addrs[%d] and addrs[%d] are both %q", ErrBadAddrs, j, i, a)
		}
		seen[a] = i
	}
	return nil
}

// Addr returns the peer's bound listen address.
func (p *Peer) Addr() string { return p.tr.(*live.TCP).Addr() }

func (p *Peer) deliver(e live.Envelope) {
	switch e.Path {
	case decidePath:
		// A remote decision, announced because an auditor is installed: it
		// completes this process's auditor's decision vector.
		if m, ok := e.Msg.(decideMsg); ok {
			if a := obs.ActiveAuditor(); a != nil {
				a.Decide(e.TxID, e.From, m.V, "")
			}
		}
		return
	case helloPath:
		// A client announcing its reply route (possibly refreshing it after
		// a restart on a new port).
		if m, ok := e.Msg.(helloMsg); ok {
			if tcp, ok := p.tr.(*live.TCP); ok {
				tcp.SetRoute(e.From, m.Addr)
			}
		}
		return
	case stagePath:
		p.handleStage(e)
		return
	case goPath:
		// Coordinating a commit blocks until the decision; never stall the
		// transport's read loop on it.
		go p.handleGo(e)
		return
	case stageGoPath:
		go p.handleStageGo(e)
		return
	case queryPath:
		p.handleQuery(e)
		return
	case unstagePath:
		p.handleUnstage(e)
		return
	}
	// A begin, or a protocol message, which also implies the transaction
	// exists: start our instance if it is not running yet (its vote comes
	// from our Resource). A straggler for a retired transaction finds no
	// instance and is dropped.
	run := p.ensureInstance(e.TxID)
	if run != nil && e.Path != beginPath {
		run.Deliver(e)
	}
}

// handleStage hands a remote client's footprint to the hosted resource and
// acks the outcome (the client collects every involved peer's ack before it
// sends go, so a begin can never overtake its footprint).
func (p *Peer) handleStage(e live.Envelope) {
	var ack stageAckMsg
	hosted, ok := p.res.(HostedResource)
	if !ok {
		ack.Err = "peer does not host a stageable resource"
	} else {
		p.mu.Lock()
		_, started := p.instances[e.TxID]
		done := p.decided.has(e.TxID)
		closed := p.closed
		p.mu.Unlock()
		switch {
		case closed:
			ack.Err = "peer closed"
		case done || started:
			ack.Err = "transaction already running or decided"
		default:
			if err := hosted.Stage(e.TxID, e.Msg); err != nil {
				ack.Err = err.Error()
			} else {
				p.mu.Lock()
				p.staged[e.TxID] = struct{}{}
				p.mu.Unlock()
				txID := e.TxID
				time.AfterFunc(stageTTLUnits*p.opts.Timeout, func() { p.reclaimStage(txID) })
			}
		}
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: stageAckPath, Msg: ack})
}

// handleGo coordinates the commit of a client's transaction and reports the
// local decision (or the infrastructure failure) back. The run is bounded so
// a result always goes out — the client must observe abort-or-commit-or-
// error, never a hang.
func (p *Peer) handleGo(e live.Envelope) {
	ctx, cancel := context.WithTimeout(context.Background(), coordinateUnits*p.opts.Timeout)
	defer cancel()
	ok, err := p.Commit(ctx, e.TxID)
	res := resultMsg{V: core.Abort}
	if ok {
		res.V = core.Commit
	}
	if err != nil {
		res.Err = err.Error()
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: resultPath, Msg: res})
}

// handleStageGo is handleStage and handleGo collapsed into one leg: stage
// the piggybacked footprint (same-connection delivery guarantees it cannot
// be overtaken by the begin it precedes), then coordinate the commit and
// report the decision. A stage refusal answers as a resultMsg error — the
// transaction never begins, and nothing was staged elsewhere that this
// client still owns (two-phase stages, if any, were acked first). No stage
// TTL is armed: the protocol run arrives in the same breath, so there is
// no orphaned-stage window for a client crash to leave behind.
func (p *Peer) handleStageGo(e live.Envelope) {
	m, ok := e.Msg.(stageGoMsg)
	if !ok {
		return
	}
	if len(m.Fp) > 0 {
		hosted, isHosted := p.res.(HostedResource)
		refuse := func(msg string) {
			_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From,
				Path: resultPath, Msg: resultMsg{V: core.Abort, Err: msg}})
		}
		if !isHosted {
			refuse("peer does not host a stageable resource")
			return
		}
		p.mu.Lock()
		_, started := p.instances[e.TxID]
		done := p.decided.has(e.TxID)
		closed := p.closed
		p.mu.Unlock()
		switch {
		case closed:
			refuse("peer closed")
			return
		case done || started:
			// A replayed stage+go: the footprint already reached the
			// protocol; fall through and answer from the run or the cache.
		default:
			fp, err := live.UnmarshalMessage(m.Fp)
			if err != nil {
				refuse("malformed piggybacked footprint: " + err.Error())
				return
			}
			if err := hosted.Stage(e.TxID, fp); err != nil {
				refuse(err.Error())
				return
			}
			p.mu.Lock()
			p.staged[e.TxID] = struct{}{}
			p.mu.Unlock()
		}
	}
	p.handleGo(e)
}

// handleQuery answers a one-shot read against the hosted resource. Errors
// the resource cannot encode in its reply message degrade to silence (the
// client's context expires), the same as a crashed peer.
func (p *Peer) handleQuery(e live.Envelope) {
	hosted, ok := p.res.(HostedResource)
	if !ok {
		return
	}
	reply, err := hosted.Query(e.Msg)
	if err != nil || reply == nil {
		return
	}
	_ = p.tr.Send(live.Envelope{TxID: e.TxID, From: p.id, To: e.From, Path: queryReplyPath, Msg: reply})
}

// handleUnstage drops a staged transaction on the client's request (a
// sibling stage was refused, so the transaction will never begin).
func (p *Peer) handleUnstage(e live.Envelope) {
	p.dropStage(e.TxID)
}

// reclaimStage is the stage TTL firing: a footprint whose protocol run
// never arrived is aborted, bounding how long a dead client's intents can
// block other transactions.
func (p *Peer) reclaimStage(txID string) {
	p.dropStage(txID)
}

// dropStage aborts a staged, never-begun transaction and poisons its txID
// with a cached abort outcome — a pathologically late begin must be dropped
// (and answered abort from the cache), not allowed to vacuously commit a
// transaction whose staged writes were just thrown away. No-op once the
// protocol instance started or decided: the protocol owns the outcome then.
func (p *Peer) dropStage(txID string) {
	p.mu.Lock()
	_, staged := p.staged[txID]
	delete(p.staged, txID)
	_, started := p.instances[txID]
	if !staged || started || p.decided.has(txID) {
		p.mu.Unlock()
		return
	}
	p.decided.add(txID, core.Abort)
	p.mu.Unlock()
	p.res.Abort(txID)
}

// retire forgets a decided transaction's instance, remembering its outcome
// (bounded by retiredHistory) so late messages are dropped and Wait/Commit
// replays still answer from the cache.
func (p *Peer) retire(txID string, v core.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.instances, txID)
	delete(p.staged, txID)
	p.decided.add(txID, v)
}

// ensureInstance returns the local run of txID, creating and starting its
// instance (voting via the Resource) on first use. It returns nil once the
// peer closed or the transaction retired.
func (p *Peer) ensureInstance(txID string) *peerRun {
	p.mu.Lock()
	if p.closed || p.decided.has(txID) {
		p.mu.Unlock()
		return nil
	}
	if run, ok := p.instances[txID]; ok {
		p.mu.Unlock()
		return run
	}
	run := &peerRun{
		Instance: live.NewInstance(live.Config{
			ID: p.id, N: p.n, F: p.opts.F, U: p.opts.ticks(), TxID: txID,
			Label: string(p.opts.Protocol),
			New:   p.newModule,
			Send:  p.tr.Send,
		}),
		settled: make(chan struct{}),
	}
	p.instances[txID] = run
	delete(p.staged, txID) // the protocol owns the footprint's fate now
	p.mu.Unlock()

	// Prepare outside the lock: it is user code and may take time.
	vote := core.Abort
	if p.res.Prepare(txID) {
		vote = core.Commit
	}
	run.Start(vote)
	if !p.owned {
		go p.settle(txID, run)
	}
	return run
}

// settle applies the outcome to the resource when the decision lands, then
// — after a grace period for peers that still need this instance's
// termination help — retires it so per-transaction state stays bounded.
// Under audit it first announces the decision to the other peers' auditors.
func (p *Peer) settle(txID string, run *peerRun) {
	<-run.Done()
	v := run.Outcome()
	if obs.ActiveAuditor() != nil {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		for q := 1; q <= p.n && !closed; q++ {
			if core.ProcessID(q) != p.id {
				_ = p.tr.Send(live.Envelope{TxID: txID, From: p.id, To: core.ProcessID(q), Path: decidePath, Msg: decideMsg{V: v}})
			}
		}
	}
	if v == core.Commit {
		p.res.Commit(txID)
	} else {
		p.res.Abort(txID)
	}
	close(run.settled)
	time.AfterFunc(retireGraceUnits*p.opts.Timeout, func() {
		run.Close()
		p.retire(txID, v)
	})
}

// ServeDebug starts the observability HTTP endpoint (expvar under
// /debug/vars, the metrics registry under /debug/metrics, the flight
// recorder under /debug/trace, and net/http/pprof under /debug/pprof/) on
// addr, returning the bound address (useful with ":0"). The server stops
// when the peer closes.
func (p *Peer) ServeDebug(addr string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return "", fmt.Errorf("commit: peer closed")
	}
	if p.debug != nil {
		return "", fmt.Errorf("commit: debug endpoint already serving")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: obs.DebugHandler()}
	p.debug = srv
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Commit initiates transaction txID from this peer and blocks until the
// LOCAL decision has been applied to this peer's Resource (other peers
// decide on their own and fire their callbacks). It returns true iff the
// transaction committed.
func (p *Peer) Commit(ctx context.Context, txID string) (bool, error) {
	if txID == "" {
		return false, fmt.Errorf("commit: txID required")
	}
	// Announce the transaction so every peer starts (roughly) together.
	for q := 1; q <= p.n; q++ {
		if core.ProcessID(q) != p.id {
			_ = p.tr.Send(live.Envelope{TxID: txID, From: p.id, To: core.ProcessID(q), Path: beginPath, Msg: beginMsg{}})
		}
	}
	return p.await(ctx, txID)
}

// Wait blocks until this peer's instance for txID (started by any peer)
// decides and the outcome reached its Resource. A transaction that already
// decided and retired answers from the outcome cache.
func (p *Peer) Wait(ctx context.Context, txID string) (bool, error) {
	return p.await(ctx, txID)
}

// await resolves txID's outcome: from the live instance if one exists (or
// can be started), else from the retired-outcome cache.
func (p *Peer) await(ctx context.Context, txID string) (bool, error) {
	run := p.ensureInstance(txID)
	if run == nil {
		p.mu.Lock()
		v, ok := p.decided.get(txID)
		p.mu.Unlock()
		if ok {
			return v == core.Commit, nil
		}
		return false, fmt.Errorf("commit: peer closed")
	}
	v, err := run.Wait(ctx)
	if err != nil {
		return false, err
	}
	// Answer only once the outcome is applied here: a client told
	// "committed" must find the coordinator's own writes.
	select {
	case <-run.settled:
	case <-ctx.Done():
		return false, fmt.Errorf("commit: apply %s at %v: %w", txID, p.id, ctx.Err())
	}
	return v == core.Commit, nil
}

// Close shuts the peer down.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	runs := p.instances
	p.instances = make(map[string]*peerRun)
	debug := p.debug
	p.mu.Unlock()
	if debug != nil {
		debug.Close()
	}
	for _, run := range runs {
		run.Close()
	}
	p.tr.Close()
}
