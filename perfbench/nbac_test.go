package main

import (
	"sync"
	"testing"
)

func allLive(int) bool { return true }

// script feeds one transaction's participant callbacks through the
// Resource the benchmark hands the program, and returns the verdict.
func script(t *testing.T, live func(int) bool, steps func(rs []participant)) verdict {
	t.Helper()
	l := newLedger(true)
	rs := make([]participant, nPeers)
	for p := range rs {
		rs[p] = participant{p: p, l: l}
	}
	steps(rs)
	e, ok := l.lookup("tx")
	if !ok {
		t.Fatal("no participant reported")
	}
	return e.verdict(live)
}

func TestCheckerFlagsScriptedViolations(t *testing.T) {
	allYesThen := func(decide func(r participant)) func(rs []participant) {
		return func(rs []participant) {
			for _, r := range rs {
				r.Prepare("tx")
			}
			for _, r := range rs {
				decide(r)
			}
		}
	}
	cases := []struct {
		name  string
		live  func(int) bool
		steps func(rs []participant)
		want  verdict
	}{
		{"nice commit", allLive, allYesThen(func(r participant) { r.Commit("tx") }), verdictOK},
		{"unanimous abort", allLive, allYesThen(func(r participant) { r.Abort("tx") }), verdictOK},
		{"disagreement", allLive, allYesThen(func(r participant) {
			if r.p == 2 {
				r.Abort("tx")
			} else {
				r.Commit("tx")
			}
		}), verdictDisagree},
		{"decides twice differently", allLive, func(rs []participant) {
			allYesThen(func(r participant) { r.Commit("tx") })(rs)
			rs[1].Abort("tx")
		}, verdictDisagree},
		{"commit without a prepare", allLive, func(rs []participant) {
			for _, r := range rs[:nPeers-1] {
				r.Prepare("tx")
			}
			for _, r := range rs {
				r.Commit("tx")
			}
		}, verdictInvalid},
		{"commit over a no vote", allLive, func(rs []participant) {
			for _, r := range rs {
				r.l.prepare("tx", r.p, r.p != 0)
			}
			for _, r := range rs {
				r.Commit("tx")
			}
		}, verdictInvalid},
		{"missing callback", allLive, func(rs []participant) {
			for _, r := range rs {
				r.Prepare("tx")
			}
			for _, r := range rs[:nPeers-1] {
				r.Commit("tx")
			}
		}, verdictUndecided},
		{"crashed participant need not decide", func(p int) bool { return p != nPeers-1 }, func(rs []participant) {
			for _, r := range rs[:nPeers-1] {
				r.Prepare("tx")
				r.Abort("tx")
			}
		}, verdictOK},
		{"abort with a crashed voter is fine, commit is not", func(p int) bool { return p != nPeers-1 }, func(rs []participant) {
			for _, r := range rs[:nPeers-1] {
				r.Prepare("tx")
				r.Commit("tx")
			}
		}, verdictInvalid},
	}
	for _, c := range cases {
		if got := script(t, c.live, c.steps); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLedgerConcurrentReports(t *testing.T) {
	l := newLedger(true)
	var wg sync.WaitGroup
	for p := 0; p < nPeers; p++ {
		wg.Add(1)
		go func(r participant) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				id := string(rune('a' + i%26))
				r.Prepare(id)
				r.Commit(id)
			}
		}(participant{p: p, l: l})
	}
	wg.Wait()
	for i := 0; i < 26; i++ {
		e, ok := l.lookup(string(rune('a' + i)))
		if !ok || e.verdict(allLive) != verdictOK {
			t.Fatalf("tx %c: seen=%v verdict=%v", 'a'+i, ok, e.verdict(allLive))
		}
	}
}
