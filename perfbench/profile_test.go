package main

import (
	"math"
	"testing"
)

const tracesOut = `File: perfbench
Type: cpu
Duration: 4.12s, Total samples = 100ms (2.43%)
-----------+-------------------------------------------------------
      40ms   internal/runtime/syscall.Syscall6
             net.(*Buffers).WriteTo
             atomiccommit/internal/live.(*TCP).flushLoop
             atomiccommit/commit.(*Peer).deliver
-----------+-------------------------------------------------------
      30ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   atomiccommit/internal/protocols/inbac.(*INBAC).Deliver
             atomiccommit/internal/live.(*Instance).Deliver
-----------+-------------------------------------------------------
      10ms   runtime.mallocgc
             atomiccommit/kv.(*Shard).Prepare (inline)
             main.(*shardRes).Prepare
-----------+-------------------------------------------------------
`

func TestAttributeTracesInnermostModule(t *testing.T) {
	got, err := attributeTraces([]byte(tracesOut))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"live": 0.4, "other": 0.3, "protocols": 0.2, "kv": 0.1}
	sum := 0.0
	for _, mod := range cpuModuleNames {
		sum += got[mod]
		if math.Abs(got[mod]-want[mod]) > 1e-9 {
			t.Errorf("%s: %v, want %v", mod, got[mod], want[mod])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}
