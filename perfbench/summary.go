package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"atomiccommit/internal/bench"
)

// The end-to-end metrics, in report order (BENCHMARK.json lists the same).
var e2eMetrics = []struct{ name, unit string }{
	{"goodput_tps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"cpu_us_per_commit", "us"},
	{"mem_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// The per-layer metrics of a traced run, in report order. Every workload
// prints all of them; a layer a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"gen.late_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"commit.submit_to_prepare_ms.p50", "ms"},
	{"commit.submit_to_prepare_ms.p99", "ms"},
	{"commit.prepare_skew_ms.p50", "ms"},
	{"commit.prepare_skew_ms.p99", "ms"},
	{"commit.decide_skew_ms.p50", "ms"},
	{"commit.decide_skew_ms.p99", "ms"},
	{"commit.result_leg_ms.p50", "ms"},
	{"commit.result_leg_ms.p99", "ms"},
	{"commit.abort_frac", "ratio"},
	{"commit.error_frac", "ratio"},
	{"commit.disagree_frac", "ratio"},
	{"commit.invalid_frac", "ratio"},
	{"commit.undecided_frac", "ratio"},
	{"protocols.vote_to_decide_ms.p50", "ms"},
	{"protocols.vote_to_decide_ms.p99", "ms"},
	{"protocols.inbac.fast_frac", "ratio"},
	{"protocols.inbac.fallback_frac", "ratio"},
	{"live.envelopes_per_txn", "count"},
	{"live.extra_envelopes_per_txn", "count"},
	{"live.wire_bytes_per_txn", "B"},
	{"live.frames_per_txn", "count"},
	{"live.envelopes_per_frame", "count"},
	{"live.tcp.dials", "count"},
	{"live.tcp.evictions", "count"},
	{"kv.read_ms.p50", "ms"},
	{"kv.read_ms.p99", "ms"},
	{"kv.submit_ms.p50", "ms"},
	{"kv.submit_ms.p99", "ms"},
	{"kv.wait_ms.p50", "ms"},
	{"kv.wait_ms.p99", "ms"},
	{"kv.shard.prepare_us.p50", "us"},
	{"kv.shard.prepare_us.p99", "us"},
	{"kv.shard.commit_us.p50", "us"},
	{"kv.shard.commit_us.p99", "us"},
	{"kv.shard.query_us.p50", "us"},
	{"kv.shard.query_us.p99", "us"},
	{"kv.shard.stage_us.p50", "us"},
	{"kv.shard.stage_us.p99", "us"},
	{"kv.rtt_per_txn", "count"},
	{"kv.cache_hit_frac", "ratio"},
	{"kv.read_batches_per_txn", "count"},
	{"kv.read_retries", "count"},
	{"kv.prepare_no_frac", "ratio"},
	{"kv.stale_read_per_txn", "count"},
	{"kv.intent_clash_per_txn", "count"},
	{"kv.cache_stale_abort_frac", "ratio"},
	{"cpu.commit_frac", "ratio"},
	{"cpu.live_frac", "ratio"},
	{"cpu.wire_frac", "ratio"},
	{"cpu.protocols_frac", "ratio"},
	{"cpu.consensus_frac", "ratio"},
	{"cpu.kv_frac", "ratio"},
	{"cpu.obs_frac", "ratio"},
	{"cpu.other_frac", "ratio"},
	{"go.allocs_per_commit", "count"},
	{"go.alloc_bytes_per_commit", "B"},
	{"go.gc_pause_ms", "ms"},
	{"trace.span_residual_p50_ms", "ms"},
	{"trace.overhead_p50_frac", "ratio"},
}

// report is the outcome of one run: the counts the JSON result carries, the
// metrics, and human-readable lines printed before the JSON result.
type report struct {
	attempted, failed int
	correct           bool
	e2e, layers       map[string]float64
	lines             []string
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// summarize turns a measurement into the report: it classifies every
// measured transaction by its client-visible outcome and the outside-in
// NBAC verdict, then derives the end-to-end metrics and, on traced runs,
// the per-layer split.
func summarize(m *measurement) *report {
	rep := &report{e2e: map[string]float64{}, layers: map[string]float64{}}
	var (
		committed, aborted, errored, unresolved, violations int
		verdicts                                            [4]int
		lat, late                                           []float64
		s2p, pskew, dskew, v2d, leg, resid                  []float64
		prepares, noVotes                                   int
		mesh                                                = m.cfg.workload == "commit-mesh"
		violationUnflagged                                  int
		errTexts                                            = map[string]int{}
	)
	drainCap := m.stop + int64(10*time.Second)
	for i, r := range m.recs {
		out, end := r.out.Load(), r.end.Load()
		e, seen := m.ledger.lookup(r.id)
		v := verdictUndecided
		if seen {
			v = e.verdict(func(p int) bool { return m.isLive(i, p) })
			for p := 0; p < nPeers; p++ {
				if e.vote[p] != 0 {
					prepares++
				}
				if e.vote[p] == no {
					noVotes++
				}
			}
		}
		verdicts[v]++
		switch out {
		case outNone:
			unresolved++
			end = drainCap
		case outError:
			errored++
			if r.err != "" {
				errTexts[strings.ReplaceAll(r.err, r.id, "<txID>")]++
			}
		case outViolation:
			violations++
			if v == verdictOK {
				violationUnflagged++
			}
		}
		failed := out == outNone || out == outError || out == outViolation || v != verdictOK
		if failed {
			rep.failed++
		} else if out == outCommit {
			committed++
		} else {
			aborted++
		}
		lat = append(lat, ms(end-r.due))
		if r.sent > 0 && m.cfg.workload != "kv-geo" {
			late = append(late, ms(r.sent-r.due))
		}
		if !m.cfg.traced || !seen || failed {
			continue
		}
		fp, lp, fd, ld := spanBounds(&e)
		cd := fd // the coordinator's decision; the first one when the runtime chose it
		if r.coord > 0 && e.dec[r.coord-1] != 0 {
			cd = e.decAt[r.coord-1]
		}
		s2p = append(s2p, ms(fp-r.sent))
		pskew = append(pskew, ms(lp-fp))
		dskew = append(dskew, ms(ld-fd))
		v2d = append(v2d, ms(fd-lp))
		leg = append(leg, ms(end-cd))
		// The residual is the part of the transaction's latency its spans
		// do not cover: on the open loops the chain generator lateness,
		// submit to first Prepare, Prepare skew, last Prepare to first
		// decision, coordinator decision to resolved future; on the closed
		// loop the client calls GetMulti, Txn.Submit and Pending.Wait.
		if m.cfg.workload == "kv-geo" {
			resid = append(resid, ms(end-r.due-r.read-r.submit-r.wait))
		} else {
			resid = append(resid, ms((end-r.due)-(r.sent-r.due)-(fp-r.sent)-(lp-fp)-(fd-lp)-(end-cd)))
		}
	}
	n := len(m.recs)
	rep.attempted = n
	window := time.Duration(m.stop - m.start).Seconds()

	// End-to-end.
	rep.e2e["goodput_tps"] = float64(committed) / window
	rep.e2e["latency_p50_ms"] = quantile(lat, 0.50)
	rep.e2e["latency_p99_ms"] = quantile(lat, 0.99)
	rep.e2e["ok_frac"] = 1 - float64(rep.failed)/float64(n)
	if committed > 0 {
		rep.e2e["cpu_us_per_commit"] = float64(m.cpu.Microseconds()) / float64(committed)
	}
	rep.e2e["mem_peak_mb"] = float64(m.memPeak) / (1 << 20)
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	rep.e2e["setup_s"] = quantile(append([]float64(nil), setups...), 0.5)
	rep.linef("setups (boot + warm-up): %.3f s", setups)

	frac := func(k int) float64 { return float64(k) / float64(n) }
	rep.linef("%s: %d attempted over %.3fs: %d committed, %d aborted, %d failed (fail_frac %.5f); latency samples %d",
		m.cfg.workload, n, window, committed, aborted, rep.failed, frac(rep.failed), len(lat))
	rep.linef("failures: %d errored, %d unresolved, %d ErrAgreementViolation; outside-in NBAC: %d disagree, %d invalid, %d undecided",
		errored, unresolved, violations, verdicts[verdictDisagree], verdicts[verdictInvalid], verdicts[verdictUndecided])
	texts := make([]string, 0, len(errTexts))
	for text := range errTexts {
		texts = append(texts, text)
	}
	sort.Strings(texts)
	for _, text := range texts {
		rep.linef("error x%d: %s", errTexts[text], text)
	}
	if decided := committed + aborted; decided < 1000 {
		rep.linef("warning: only %d decided transactions in the window (want >= 1000)", decided)
	}
	if mesh {
		flagged := n - verdicts[verdictOK]
		rep.linef("mesh cross-check: the outside-in check flagged %d, Cluster returned ErrAgreementViolation for %d, %d of those unflagged",
			flagged, violations, violationUnflagged)
		if violationUnflagged > 0 {
			m.failures = append(m.failures, fmt.Sprintf("%d ErrAgreementViolation transactions passed the outside-in check", violationUnflagged))
		}
	}

	// The paper's closed form beside the live envelope count.
	nice := bench.MeasureNice(protocol, nPeers, 1)
	envelopes := (m.counter("live.send.envelopes") + m.counter("live.mesh.envelopes")) / float64(n)
	rep.linef("paper reference: %s n=%d f=1 nice execution = %d messages, %d delays; live = %.2f envelopes/txn (+%.2f beyond the protocol)",
		protocol, nPeers, nice.Messages, nice.Delays, envelopes, envelopes-float64(nice.Messages))
	for _, note := range m.notes {
		rep.linef("%s", note)
	}

	rep.correct = len(m.failures) == 0
	for _, f := range m.failures {
		rep.linef("CHECK FAILED: %s", f)
	}
	if !m.cfg.traced {
		return rep
	}

	// Per-layer split.
	L := rep.layers
	L["gen.late_p99_ms"] = quantile(late, 0.99)
	L["gen.late_max_ms"] = quantile(late, 1)
	pct := func(name string, xs []float64) {
		L[name+".p50"] = quantile(xs, 0.50)
		L[name+".p99"] = quantile(xs, 0.99)
	}
	pct("commit.submit_to_prepare_ms", s2p)
	pct("commit.prepare_skew_ms", pskew)
	pct("commit.decide_skew_ms", dskew)
	pct("commit.result_leg_ms", leg)
	pct("protocols.vote_to_decide_ms", v2d)
	L["commit.abort_frac"] = frac(aborted)
	L["commit.error_frac"] = frac(errored + unresolved + violations)
	L["commit.disagree_frac"] = frac(verdicts[verdictDisagree])
	L["commit.invalid_frac"] = frac(verdicts[verdictInvalid])
	L["commit.undecided_frac"] = frac(verdicts[verdictUndecided])

	fast := m.counter("decide_path.inbac.fast") + m.counter("decide_path.inbac.help-fast")
	var fallback float64
	for _, p := range []string{"cons-and", "cons-zero", "help-cons-and", "help-cons-zero"} {
		fallback += m.counter("decide_path.inbac." + p)
	}
	if fast+fallback > 0 {
		L["protocols.inbac.fast_frac"] = fast / (fast + fallback)
		L["protocols.inbac.fallback_frac"] = fallback / (fast + fallback)
	}

	L["live.envelopes_per_txn"] = envelopes
	L["live.extra_envelopes_per_txn"] = envelopes - float64(nice.Messages)
	L["live.wire_bytes_per_txn"] = (m.counter("live.send.bytes") + m.counter("live.mesh.bytes")) / float64(n)
	frames := m.counter("live.tcp.flush.frames")
	L["live.frames_per_txn"] = frames / float64(n)
	if frames > 0 {
		L["live.envelopes_per_frame"] = m.counter("live.send.envelopes") / frames
	}
	L["live.tcp.dials"] = m.counter("live.tcp.dials")
	L["live.tcp.evictions"] = m.counter("live.tcp.evictions")

	if m.cfg.workload == "kv-geo" {
		var read, submit, wait []float64
		for _, r := range m.recs {
			if r.read > 0 {
				read = append(read, ms(r.read))
			}
			if r.submit > 0 {
				submit = append(submit, ms(r.submit))
				wait = append(wait, ms(r.wait))
			}
		}
		pct("kv.read_ms", read)
		pct("kv.submit_ms", submit)
		pct("kv.wait_ms", wait)
		for _, cb := range []string{"prepare", "commit", "query", "stage"} {
			us := make([]float64, len(m.shardSpans[cb]))
			for i, d := range m.shardSpans[cb] {
				us[i] = float64(d) / 1e3
			}
			pct("kv.shard."+cb+"_us", us)
		}
		L["kv.rtt_per_txn"] = m.counter("kv.remote.legs") / float64(n)
		if hm := m.counter("kv.cache.hit") + m.counter("kv.cache.miss"); hm > 0 {
			L["kv.cache_hit_frac"] = m.counter("kv.cache.hit") / hm
		}
		L["kv.read_batches_per_txn"] = m.counter("kv.remote.read.batches") / float64(n)
		L["kv.read_retries"] = m.counter("kv.remote.read.retries")
		if prepares > 0 {
			L["kv.prepare_no_frac"] = float64(noVotes) / float64(prepares)
		}
		L["kv.stale_read_per_txn"] = m.counter("kv.conflict.stale_read") / float64(n)
		L["kv.intent_clash_per_txn"] = m.counter("kv.conflict.intent") / float64(n)
		if aborted > 0 {
			L["kv.cache_stale_abort_frac"] = m.counter("kv.cache.stale_abort") / float64(aborted)
		}
	}

	if fracs, err := cpuByModule(m.profile); err != nil {
		rep.linef("cpu attribution unavailable: %v", err)
	} else {
		for mod, f := range fracs {
			L["cpu."+mod+"_frac"] = f
		}
	}
	if committed > 0 {
		L["go.allocs_per_commit"] = float64(m.ms1.Mallocs-m.ms0.Mallocs) / float64(committed)
		L["go.alloc_bytes_per_commit"] = float64(m.ms1.TotalAlloc-m.ms0.TotalAlloc) / float64(committed)
	}
	L["go.gc_pause_ms"] = float64(m.ms1.PauseTotalNs-m.ms0.PauseTotalNs) / 1e6
	L["trace.span_residual_p50_ms"] = quantile(resid, 0.5)
	rep.linef("span residual: median %.4f ms of latency p50 %.4f ms over %d decided transactions (latency minus the sum of its spans)",
		L["trace.span_residual_p50_ms"], rep.e2e["latency_p50_ms"], len(resid))
	return rep
}

// spanBounds returns the first and last Prepare and the first and last
// decision callback of an entry (now() readings).
func spanBounds(e *entry) (firstPrep, lastPrep, firstDec, lastDec int64) {
	firstPrep, firstDec = 1<<62, 1<<62
	for p := 0; p < nPeers; p++ {
		if e.vote[p] != 0 {
			firstPrep = min(firstPrep, e.prepAt[p])
			lastPrep = max(lastPrep, e.prepAt[p])
		}
		if e.dec[p] != 0 {
			firstDec = min(firstDec, e.decAt[p])
			lastDec = max(lastDec, e.decAt[p])
		}
	}
	return
}

// describe renders a metric list as "name value unit" lines.
func describe(values map[string]float64, names []struct{ name, unit string }) string {
	var b strings.Builder
	for _, mt := range names {
		fmt.Fprintf(&b, "  %-34s %14.6f %s\n", mt.name, values[mt.name], mt.unit)
	}
	return b.String()
}
