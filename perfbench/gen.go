package main

import (
	"math"
	"math/rand"
	"time"
)

// The seeded input generator. The seed fixes every input the benchmark
// feeds the program: open-loop arrival times, kv key choices and the crash
// workload's fault offsets. The program under test only ever sees the
// generated transactions, never the seed.

// arrivals returns the due offsets of a Poisson arrival process at rate
// per second over [0, span): exponential gaps drawn from seed.
func arrivals(seed int64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, int(rate*span.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// faultWindow returns when the crash workload closes its victim peer and
// when it restarts it, as offsets into a measured window of length w. The
// victim is down for exactly w/3; the seed shifts the outage by up to
// ±w/30 around the window's middle third, so the failure count stays
// comparable across seeds while the fault lands at seed-chosen moments.
func faultWindow(seed int64, w time.Duration) (down, up time.Duration) {
	r := rand.New(rand.NewSource(seed ^ 0x5eed_fa17))
	shift := time.Duration((r.Float64()*2 - 1) * float64(w) / 30)
	down = w/3 + shift
	return down, down + w/3
}

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, theta in
// [0, 1): the YCSB generator of Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases".
type zipf struct {
	r                        *rand.Rand
	n                        float64
	theta, alpha, zetan, eta float64
	half                     float64 // 1 + 0.5^theta
}

func newZipf(seed int64, n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{r: rand.New(rand.NewSource(seed)), n: float64(n), theta: theta}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) next() int {
	u := z.r.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	return int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// distinct draws k distinct ranks.
func (z *zipf) distinct(k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		v := z.next()
		dup := false
		for _, w := range out {
			dup = dup || w == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// intn draws from the zipf generator's own stream, so a worker's whole
// input sequence hangs off one seed.
func (z *zipf) intn(n int) int { return z.r.Intn(n) }

// workerSeed derives the seed of one closed-loop worker.
func workerSeed(seed int64, client, worker int) int64 {
	return seed*1_000_003 + int64(client)*7919 + int64(worker)
}
