package main

import (
	"reflect"
	"testing"
	"time"
)

func TestArrivalsDeterministicPerSeed(t *testing.T) {
	const rate, span = 2000, 2 * time.Second
	a, b := arrivals(7, rate, span), arrivals(7, rate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, rate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 3600 || n > 4400 {
		t.Fatalf("%d arrivals in %v at %v/s", n, span, rate)
	}
	for i, d := range a {
		if d < 0 || d >= span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v: out of order or outside [0, %v)", i, d, span)
		}
	}
}

func TestFaultWindowDeterministicPerSeed(t *testing.T) {
	const w = 12 * time.Second
	for seed := int64(0); seed < 50; seed++ {
		down, up := faultWindow(seed, w)
		if d2, u2 := faultWindow(seed, w); d2 != down || u2 != up {
			t.Fatalf("seed %d: fault offsets differ between calls", seed)
		}
		if up-down != w/3 {
			t.Fatalf("seed %d: outage %v, want %v", seed, up-down, w/3)
		}
		if down < w/3-w/30 || down > w/3+w/30 {
			t.Fatalf("seed %d: crash at %v, want within w/30 of %v", seed, down, w/3)
		}
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(seed, kvKeys, kvTheta)
		var out []int
		for i := 0; i < 200; i++ {
			out = append(out, z.distinct(kvReads)...)
			out = append(out, z.intn(kvReads))
		}
		return out
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Fatal("the same seed drew different keys")
	}
	if reflect.DeepEqual(draw(3), draw(4)) {
		t.Fatal("different seeds drew the same keys")
	}
	z := newZipf(1, kvKeys, kvTheta)
	hot := 0
	for i := 0; i < 100000; i++ {
		r := z.next()
		if r < 0 || r >= kvKeys {
			t.Fatalf("rank %d outside [0, %d)", r, kvKeys)
		}
		if r < kvKeys/4 {
			hot++
		}
	}
	// P(rank < n/4) = (1/4)^(1-theta) ≈ 0.66 for theta = 0.7.
	if f := float64(hot) / 100000; f < 0.6 || f > 0.72 {
		t.Fatalf("hottest quarter drew %.3f of the keys, want ≈0.66", f)
	}
	keys := z.distinct(kvReads)
	seen := map[int]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("distinct returned %v", keys)
		}
		seen[k] = true
	}
}
