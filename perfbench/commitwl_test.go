package main

import (
	"testing"

	"atomiccommit/internal/core"
)

// commit-geo's latency has one mode only if the client and every
// coordinator it submits to share a region, and it counts WAN delays only
// if some participant lives in another region.
func TestCommitGeoPlacement(t *testing.T) {
	spec := commitSpecs["commit-geo"]
	o, err := spec.opts()
	if err != nil {
		t.Fatal(err)
	}
	home := o.Net.RegionOf(core.ProcessID(nPeers + 1))
	for _, c := range spec.coords {
		if r := o.Net.RegionOf(core.ProcessID(c)); r != home {
			t.Errorf("coordinator P%d is in %s, the client in %s", c, r, home)
		}
	}
	remote := 0
	for p := 1; p <= nPeers; p++ {
		if o.Net.RegionOf(core.ProcessID(p)) != home {
			remote++
		}
	}
	if remote == 0 {
		t.Errorf("every participant is in the client's region %s", home)
	}
	if o.Timeout != o.Net.SuggestedTimeout() {
		t.Errorf("U = %v, want the profile's suggested timeout %v", o.Timeout, o.Net.SuggestedTimeout())
	}
}
