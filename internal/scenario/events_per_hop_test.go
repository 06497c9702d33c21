package scenario

import (
	"testing"
	"time"
)

// The events-per-hop gate. A packet-hop costs one scheduler event, its
// hand-up, plus a tx-done only when the packet had to wait for the wire
// (netsim.Link); timers, samplers and the routing agents add a little. Until
// PR 16 every hop cost two, so a second per-hop event coming back reads well
// above the bound on either registry run, serial or sharded.
func TestEventsPerPacketHop(t *testing.T) {
	for _, name := range []string{"grid", "fattree"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = 3 * time.Second
		if name == "fattree" {
			spec.RouteSync = RouteSyncProtocol
		}
		for _, shards := range []int{1, 2} {
			spec.Shards = shards
			sim, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			sim.EnableProfiling()
			if err := sim.Start(); err != nil {
				t.Fatal(err)
			}
			sim.RunToEnd()
			res := sim.Finish()
			hops := 0
			for _, l := range res.Links {
				hops += l.SentPackets
			}
			if hops < 10000 {
				t.Fatalf("%s, %d shard(s): only %d packet-hops, the run is too small to judge", name, shards, hops)
			}
			if ratio := float64(res.Perf.Events) / float64(hops); ratio > 1.5 {
				t.Errorf("%s, %d shard(s): %d events for %d packet-hops = %.3f per hop, want <= 1.5",
					name, shards, res.Perf.Events, hops, ratio)
			} else {
				t.Logf("%s, %d shard(s): %.3f events per packet-hop", name, shards, ratio)
			}
		}
	}
}
