package main

import (
	"sync"
	"time"
)

// The outside-in NBAC check. The benchmark supplies every participant's
// commit.Resource (or wraps its kv shard), so it sees each participant's
// Prepare vote and its Commit/Abort callback per transaction without any
// tracing inside the program. From those records alone it checks the
// paper's properties:
//
//   - Agreement: no two participants decide differently (and none decides
//     twice with different values).
//   - Validity: a participant decides commit only if all n participants
//     voted yes.
//   - Termination: every live participant decides within the drain bound.

const (
	nPeers   = 4 // every workload runs n=4, f=1
	protocol = "inbac"
)

// Vote and decision codes in a ledger entry; 0 means "not seen".
const (
	yes int8 = 1 + iota
	no
)

const (
	decCommit int8 = 1 + iota
	decAbort
)

type verdict uint8

const (
	verdictOK verdict = iota
	verdictDisagree
	verdictInvalid
	verdictUndecided
)

func (v verdict) String() string {
	return [...]string{"ok", "disagree", "invalid", "undecided"}[v]
}

// entry is what the participants reported for one transaction. Index p is
// participant P(p+1). The timestamps (see now) are filled only on traced
// runs.
type entry struct {
	vote   [nPeers]int8
	dec    [nPeers]int8
	flip   bool // some participant decided twice, differently
	prepAt [nPeers]int64
	decAt  [nPeers]int64
}

// verdict classifies the entry; live reports whether participant p was up
// for the transaction's whole life (only live participants must decide).
// A violation of Agreement outranks one of Validity, which outranks one of
// Termination.
func (e *entry) verdict(live func(p int) bool) verdict {
	var commits, aborts int
	allYes := true
	for p := 0; p < nPeers; p++ {
		switch e.dec[p] {
		case decCommit:
			commits++
		case decAbort:
			aborts++
		}
		allYes = allYes && e.vote[p] == yes
	}
	switch {
	case e.flip || (commits > 0 && aborts > 0):
		return verdictDisagree
	case commits > 0 && !allYes:
		return verdictInvalid
	}
	if !e.decided(live) {
		return verdictUndecided
	}
	return verdictOK
}

// decided reports whether every participant live() admits has decided.
func (e *entry) decided(live func(p int) bool) bool {
	for p := 0; p < nPeers; p++ {
		if e.dec[p] == 0 && live(p) {
			return false
		}
	}
	return true
}

// ledger collects the participants' reports, keyed by txID.
type ledger struct {
	traced bool

	mu   sync.Mutex
	txns map[string]*entry
}

func newLedger(traced bool) *ledger {
	return &ledger{traced: traced, txns: make(map[string]*entry)}
}

func (l *ledger) stamp() int64 {
	if !l.traced {
		return 0
	}
	return now()
}

func (l *ledger) get(txID string) *entry {
	e := l.txns[txID]
	if e == nil {
		e = &entry{}
		l.txns[txID] = e
	}
	return e
}

func (l *ledger) prepare(txID string, p int, ok bool) {
	at := l.stamp()
	v := yes
	if !ok {
		v = no
	}
	l.mu.Lock()
	e := l.get(txID)
	e.vote[p], e.prepAt[p] = v, at
	l.mu.Unlock()
}

func (l *ledger) decide(txID string, p int, d int8) {
	at := l.stamp()
	l.mu.Lock()
	e := l.get(txID)
	if e.dec[p] != 0 && e.dec[p] != d {
		e.flip = true
	}
	if e.dec[p] == 0 {
		e.dec[p], e.decAt[p] = d, at
	}
	l.mu.Unlock()
}

// lookup returns a copy of txID's entry, and whether any participant
// reported on it.
func (l *ledger) lookup(txID string) (entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.txns[txID]
	if !ok {
		return entry{}, false
	}
	return *e, true
}

// settle waits until every listed transaction that reached a participant
// has a decision from each live participant, or until deadline.
func (l *ledger) settle(ids []string, live func(i, p int) bool, deadline time.Time) {
	next := 0
	for time.Now().Before(deadline) {
		l.mu.Lock()
		for next < len(ids) {
			e, ok := l.txns[ids[next]]
			i := next
			if ok && !e.decided(func(p int) bool { return live(i, p) }) {
				break
			}
			next++
		}
		l.mu.Unlock()
		if next == len(ids) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// participant is the benchmark's commit.Resource for the commit
// workloads: it votes yes and reports every callback to the ledger.
type participant struct {
	p int // 0-based
	l *ledger
}

func (r participant) Prepare(txID string) bool { r.l.prepare(txID, r.p, true); return true }
func (r participant) Commit(txID string)       { r.l.decide(txID, r.p, decCommit) }
func (r participant) Abort(txID string)        { r.l.decide(txID, r.p, decAbort) }
