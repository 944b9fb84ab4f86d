package main

import (
	"testing"
	"time"

	"atomiccommit/commit"
)

// A stall in the system delays every transaction due during it. Timing
// each transaction from when it was due, not from when it was finally
// sent, charges the stall to all of them.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	start := now() + int64(5*time.Millisecond)
	recs := make([]*txnRec, 20)
	for i := range recs {
		recs[i] = &txnRec{id: string(rune('a' + i)), due: start + int64(i)*int64(time.Millisecond)}
	}
	l := newLedger(false)
	wg := openLoop(recs, func(i int) *commit.Txn {
		if i == 0 {
			time.Sleep(stall) // the submit call blocks: the generator falls behind
		}
		for p := 0; p < nPeers; p++ {
			l.prepare(recs[i].id, p, true)
			l.decide(recs[i].id, p, decCommit)
		}
		return commit.ResolvedTxn(recs[i].id, true)
	})
	wg.Wait()
	for i, r := range recs[1:10] {
		late := time.Duration(r.sent - r.due)
		if late < stall-time.Duration(i+1)*time.Millisecond-time.Millisecond {
			t.Fatalf("txn %d sent %v after its due time, want it behind the %v stall", i+1, late, stall)
		}
		if lat := time.Duration(r.end.Load() - r.due); lat < late {
			t.Fatalf("txn %d: latency %v shorter than its lateness %v", i+1, lat, late)
		}
	}

	m := &measurement{cfg: config{workload: "commit-tcp"}, ledger: l, recs: recs,
		start: start, stop: start + int64(20*time.Millisecond), setups: []time.Duration{time.Second}}
	rep := summarize(m)
	if rep.attempted != len(recs) || rep.failed != 0 || !rep.correct {
		t.Fatalf("attempted %d failed %d correct %v", rep.attempted, rep.failed, rep.correct)
	}
	// Over half the transactions were due during the stall.
	if p50 := rep.e2e["latency_p50_ms"]; p50 < 20 {
		t.Fatalf("latency p50 %.2f ms hides the %v stall", p50, stall)
	}
}

func TestSummarizeCountsFailures(t *testing.T) {
	l := newLedger(false)
	recs := []*txnRec{{id: "ok"}, {id: "disagree"}, {id: "error"}, {id: "lost"}, {id: "abort"}}
	for _, r := range recs {
		for p := 0; p < nPeers; p++ {
			l.prepare(r.id, p, true)
			d := decCommit
			if r.id == "abort" || (r.id == "disagree" && p == 3) {
				d = decAbort
			}
			l.decide(r.id, p, d)
		}
	}
	recs[0].resolve(1, outCommit)
	recs[1].resolve(1, outCommit)
	recs[2].resolve(1, outError)
	recs[4].resolve(1, outAbort) // recs[3] never resolves
	m := &measurement{cfg: config{workload: "commit-tcp"}, ledger: l, recs: recs,
		stop: int64(time.Second), setups: []time.Duration{time.Second}}
	rep := summarize(m)
	if rep.failed != 3 {
		t.Fatalf("failed = %d, want 3 (disagreement, error, unresolved)", rep.failed)
	}
	if got := rep.e2e["ok_frac"]; got != 0.4 {
		t.Fatalf("ok_frac = %v, want 0.4", got)
	}
	if got := rep.e2e["goodput_tps"]; got != 1 {
		t.Fatalf("goodput = %v committed/s, want 1", got)
	}
}
