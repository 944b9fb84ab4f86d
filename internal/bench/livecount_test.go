package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"atomiccommit/commit"
	"atomiccommit/internal/obs"
	"atomiccommit/internal/protocols"
	"atomiccommit/internal/sim"
)

// The paper's message measure is the messages of a nice execution. These
// tests pin the live runtimes to the simulator's count of the same run: a
// Cluster transaction puts exactly sim.Run(...).MessagesSent envelopes on
// the mesh, and a Peer.Commit over TCP adds only its n-1 begins. Any other
// traffic (an observability side channel, a duplicate send) breaks them.
const (
	liveCountN, liveCountF = 4, 1
	liveCountU             = 50 * time.Millisecond
)

func simMessages(t *testing.T, name string) int {
	t.Helper()
	info, ok := protocols.ByName(name)
	if !ok {
		t.Fatalf("unknown protocol %q", name)
	}
	r := sim.Run(sim.Config{N: liveCountN, F: liveCountF, New: info.New()})
	if !r.SolvesNBAC() {
		t.Fatalf("%s: nice simulator run does not solve NBAC: %v", name, r)
	}
	return r.MessagesSent
}

func TestLiveMeshMessagesMatchSimulator(t *testing.T) {
	if obs.ActiveAuditor() != nil {
		t.Skip("an installed auditor adds decision announcements")
	}
	for _, name := range commit.Protocols() {
		want := simMessages(t, name)
		rs := make([]commit.Resource, liveCountN)
		for i := range rs {
			rs[i] = commit.ResourceFunc{}
		}
		cl, err := commit.NewCluster(rs, commit.Options{
			Protocol: commit.Protocol(name), F: liveCountF, Timeout: liveCountU})
		if err != nil {
			t.Fatal(err)
		}
		before := obs.M.CounterValue("live.mesh.envelopes")
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		ok, err := cl.Commit(ctx, "count-"+name)
		cancel()
		got := obs.M.CounterValue("live.mesh.envelopes") - before
		cl.Close()
		if err != nil || !ok {
			t.Fatalf("%s: nice transaction did not commit: ok=%v err=%v", name, ok, err)
		}
		if got != int64(want) {
			t.Errorf("%s: %d mesh envelopes, simulator sends %d", name, got, want)
		}
	}
}

func TestLiveTCPMessagesMatchSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("boots four TCP peers per protocol")
	}
	if obs.ActiveAuditor() != nil {
		t.Skip("an installed auditor adds decision announcements")
	}
	for _, name := range commit.Protocols() {
		want := simMessages(t, name) + liveCountN - 1 // plus the coordinator's begins
		peers := countPeers(t, name)
		before := obs.M.CounterValue("live.send.envelopes")
		txID := "count-" + name
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		var wg sync.WaitGroup
		errs := make([]error, liveCountN)
		for i := 1; i < liveCountN; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = peers[i].Wait(ctx, txID)
			}(i)
		}
		ok, err := peers[0].Commit(ctx, txID)
		wg.Wait()
		cancel()
		// Sends are counted when enqueued, inside the handler that makes
		// them; a short settle catches any a timer would add after the
		// last decision.
		time.Sleep(2 * liveCountU)
		got := obs.M.CounterValue("live.send.envelopes") - before
		for _, p := range peers {
			p.Close()
		}
		if err != nil || !ok {
			t.Fatalf("%s: nice transaction did not commit: ok=%v err=%v", name, ok, err)
		}
		for i, err := range errs[1:] {
			if err != nil {
				t.Fatalf("%s: peer %d: %v", name, i+2, err)
			}
		}
		if got != int64(want) {
			t.Errorf("%s: %d TCP envelopes, want simulator's %d + %d begins",
				name, got, want-(liveCountN-1), liveCountN-1)
		}
	}
}

// countPeers boots liveCountN loopback peers running protocol name.
func countPeers(t *testing.T, name string) []*commit.Peer {
	t.Helper()
	addrs := make([]string, liveCountN)
	lns := make([]net.Listener, liveCountN)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := make([]*commit.Peer, liveCountN)
	for i := range peers {
		p, err := commit.NewPeer(i+1, addrs, commit.ResourceFunc{}, commit.Options{
			Protocol: commit.Protocol(name), F: liveCountF, Timeout: liveCountU})
		if err != nil {
			t.Fatal(fmt.Errorf("peer %d: %w", i+1, err))
		}
		peers[i] = p
		t.Cleanup(p.Close)
	}
	return peers
}
