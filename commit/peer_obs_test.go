package commit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"atomiccommit/internal/core"
	"atomiccommit/internal/live"
	"atomiccommit/internal/obs"
)

// startPeers boots n loopback peers (see bench.tcpPeers for the address
// reservation dance) and returns them plus a cleanup.
func startPeers(t *testing.T, n int, opts Options) []*Peer {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := make([]*Peer, n)
	for i := 1; i <= n; i++ {
		p, err := NewPeer(i, addrs, ResourceFunc{}, opts)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		peers[i-1] = p
		t.Cleanup(p.Close)
	}
	return peers
}

// auditDumps installs a fresh auditor and an anomaly hook for the test and
// returns a snapshot function of the anomaly dumps so far.
func auditDumps(t *testing.T) (*obs.Auditor, func() []obs.Anomaly) {
	t.Helper()
	var mu sync.Mutex
	var got []obs.Anomaly
	obs.SetAnomalyHook(func(d obs.Dump) {
		mu.Lock()
		got = append(got, d.Anomaly)
		mu.Unlock()
	})
	aud := obs.NewAuditor(obs.AuditorConfig{})
	obs.SetAuditor(aud)
	t.Cleanup(func() {
		obs.SetAuditor(nil)
		obs.SetAnomalyHook(nil)
	})
	return aud, func() []obs.Anomaly {
		mu.Lock()
		defer mu.Unlock()
		return append([]obs.Anomaly(nil), got...)
	}
}

// waitAnomaly polls until an anomaly of kind for txID was reported.
func waitAnomaly(t *testing.T, dumps func() []obs.Anomaly, kind, txID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, a := range dumps() {
			if a.Kind == kind && a.TxID == txID {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s anomaly for %s; got %v", kind, txID, dumps())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerDecisionCrossCheck exercises the TCP runtime's decision
// cross-check, which is the live auditor's: under audit, peers announce
// their decisions to each other's auditors; agreeing peers stay silent,
// and a diverging announcement — injected, since the protocols agree in
// healthy runs — arriving after the local decision is flagged through the
// anomaly hook with the transaction's timeline.
func TestPeerDecisionCrossCheck(t *testing.T) {
	aud, dumps := auditDumps(t)

	peers := startPeers(t, 3, Options{Protocol: "inbac", F: 1, Timeout: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	ok, err := peers[0].Commit(ctx, "xcheck-1")
	if err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}
	for _, p := range peers[1:] {
		if ok, err := p.Wait(ctx, "xcheck-1"); err != nil || !ok {
			t.Fatalf("peer wait: ok=%v err=%v", ok, err)
		}
	}
	// Every peer announced its decision; give the announcements a moment
	// to cross the sockets, then check nobody saw a violation.
	time.Sleep(300 * time.Millisecond)
	if got := dumps(); len(got) != 0 {
		t.Fatalf("agreeing peers reported anomalies: %v", got)
	}
	if v := aud.Violations(); len(v) != 0 {
		t.Fatalf("agreeing peers tripped the auditor: %v", v)
	}

	// Inject a diverging announcement: peer 2 claims it decided abort for
	// a transaction everyone committed. The auditor already holds peer 2's
	// commit, so it flags the contradiction.
	before := obs.M.CounterValue("obs.anomalies.audit-stability")
	peers[0].deliver(live.Envelope{TxID: "xcheck-1", From: 2, To: 1, Path: decidePath, Msg: decideMsg{V: core.Abort}})
	if got := obs.M.CounterValue("obs.anomalies.audit-stability"); got != before+1 {
		t.Fatalf("stability counter = %d, want %d", got, before+1)
	}
	if got := dumps(); len(got) != 1 || got[0].Kind != "audit-stability" || got[0].TxID != "xcheck-1" {
		t.Fatalf("anomalies = %v, want one audit-stability for xcheck-1", got)
	}
}

// TestPeerStashedDecisionCrossCheck covers the other ordering: the remote
// announcement arrives before the local decision lands, and the auditor
// flags the disagreement when the local decision is recorded.
func TestPeerStashedDecisionCrossCheck(t *testing.T) {
	aud, dumps := auditDumps(t)

	peers := startPeers(t, 3, Options{Protocol: "inbac", F: 1, Timeout: 50 * time.Millisecond})

	// Announce a bogus abort for a transaction that has not started
	// anywhere, then run it to commit: the first local commit decision
	// contradicts it.
	peers[0].deliver(live.Envelope{TxID: "xcheck-stash", From: 3, To: 1, Path: decidePath, Msg: decideMsg{V: core.Abort}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ok, err := peers[0].Commit(ctx, "xcheck-stash")
	if err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}

	waitAnomaly(t, dumps, "audit-agreement", "xcheck-stash")
	if v := aud.Violations(); v["audit-agreement"] != 1 {
		t.Fatalf("violations = %v, want one audit-agreement", v)
	}
}

// TestPeerServeDebug drives the peer's observability endpoint.
func TestPeerServeDebug(t *testing.T) {
	peers := startPeers(t, 2, Options{Protocol: "2pc", Timeout: 50 * time.Millisecond})
	addr, err := peers[0].ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peers[0].ServeDebug("127.0.0.1:0"); err == nil {
		t.Error("second ServeDebug should fail")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if ok, err := peers[0].Commit(ctx, "debug-1"); err != nil || !ok {
		t.Fatalf("commit: ok=%v err=%v", ok, err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if v, ok := metrics["live.send.envelopes"].(float64); !ok || v <= 0 {
		t.Errorf("live.send.envelopes = %v, want > 0", metrics["live.send.envelopes"])
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", addr))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(b) == 0 {
		t.Error("pprof cmdline empty")
	}

	// Close stops the server.
	peers[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get(fmt.Sprintf("http://%s/debug/metrics", addr)); err != nil {
			if strings.Contains(err.Error(), "refused") || strings.Contains(err.Error(), "EOF") {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Error("debug endpoint still serving after Close")
}
