package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atomiccommit/internal/obs"
)

// base anchors every timestamp the benchmark takes: now() is monotonic ns
// since process start, so client records and participant callbacks share
// one clock.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// Client-visible outcomes of one transaction.
const (
	outNone int32 = iota // unresolved
	outCommit
	outAbort
	outError
	outViolation // the program itself reported commit.ErrAgreementViolation
)

// txnRec is the client-side record of one measured transaction. Times are
// now() readings; end is 0 until the future resolves.
type txnRec struct {
	id    string
	coord int   // coordinator (1-based); 0 when the runtime picks
	due   int64 // open loop: when it was due; closed loop: its first read
	sent  int64 // when the submitting call was made
	end   atomic.Int64
	out   atomic.Int32

	// kv workload, traced runs: time inside GetMulti, Txn.Submit and
	// Pending.Wait.
	read, submit, wait int64
	key                string // kv workload: the incremented key
	err                string // open loops: the future's error, set before resolve
}

func (r *txnRec) resolve(at int64, out int32) {
	r.out.Store(out)
	r.end.Store(at)
}

// measurement is everything one measured window produced: the client
// records, the participants' ledger, and process-level probes.
type measurement struct {
	cfg      config
	setups   []time.Duration
	ledger   *ledger
	recs     []*txnRec
	live     func(i, p int) bool // nil: every participant must decide
	notes    []string
	failures []string // correctness failures (the benchmark's own checks)

	start, stop int64 // window bounds, now() readings
	cpu         time.Duration
	memPeak     uint64
	ms0, ms1    runtime.MemStats
	ctr0, ctr1  map[string]int64
	profile     *os.File // CPU profile, traced runs

	sampler   chan struct{}
	samplerWG sync.WaitGroup

	// kv workload, traced runs: durations inside the shard callbacks, ns.
	shardSpans map[string][]int64
}

const setupRounds = 5

// timeSetups boots the system setupRounds times, timing each boot plus
// warm-up, and keeps the last deployment for the measured window. boot
// returns the deployment's close function.
func (m *measurement) timeSetups(boot func(k int) (func(), error)) error {
	var prev func()
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		closer, err := boot(k)
		if err != nil {
			return fmt.Errorf("setup %d: %w", k, err)
		}
		m.setups = append(m.setups, time.Since(t0))
		if prev != nil {
			prev()
		}
		prev = closer
	}
	return nil
}

func (m *measurement) isLive(i, p int) bool {
	return m.live == nil || m.live(i, p)
}

// begin opens the measured window: counters, CPU time and memory are read
// here and at end, and a traced run starts its CPU profile (without one,
// the report says CPU attribution is unavailable).
func (m *measurement) begin() time.Time {
	runtime.GC()
	if m.cfg.traced {
		if f, err := os.Create(m.cfg.outPath("cpu.pprof")); err == nil {
			if pprof.StartCPUProfile(f) == nil {
				m.profile = f
			} else {
				f.Close()
			}
		}
	}
	runtime.ReadMemStats(&m.ms0)
	m.ctr0 = obs.M.Counters("")
	m.cpu = -cpuTime()
	t := time.Now()
	m.start = int64(t.Sub(base))
	m.sampler = make(chan struct{})
	m.samplerWG.Add(1)
	go m.sampleMem()
	return t
}

// end closes the measured window.
func (m *measurement) end() {
	m.stop = now()
	m.cpu += cpuTime()
	m.ctr1 = obs.M.Counters("")
	runtime.ReadMemStats(&m.ms1)
	close(m.sampler)
	m.samplerWG.Wait()
	if m.profile != nil {
		pprof.StopCPUProfile()
		m.profile.Close()
	}
}

// sampleMem tracks the peak of the memory the Go runtime holds from the OS
// (heap, stacks and runtime metadata, less what it has released) until the
// window closes. It follows the heap's high-water mark without the GC
// cycle's sawtooth, so samples need not land on a cycle's peak.
func (m *measurement) sampleMem() {
	defer m.samplerWG.Done()
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64() - s[1].Value.Uint64(); v > m.memPeak {
			m.memPeak = v
		}
		select {
		case <-m.sampler:
			return
		case <-tick.C:
		}
	}
}

// settle waits for the participants' callbacks on every measured
// transaction, up to deadline (the Termination bound).
func (m *measurement) settle(deadline time.Time) {
	ids := make([]string, len(m.recs))
	for i, r := range m.recs {
		ids[i] = r.id
	}
	m.ledger.settle(ids, m.isLive, deadline)
}

func (m *measurement) counter(name string) float64 {
	return float64(m.ctr1[name] - m.ctr0[name])
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of xs (sorted in place) by the nearest-
// rank rule; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
