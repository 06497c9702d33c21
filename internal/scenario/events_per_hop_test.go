package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/probe"
)

// The events-per-hop gate. A packet-hop costs one scheduler event, its
// hand-up (netsim.Link: the tx-done that starts a waiting packet is reserved,
// never scheduled); timers, samplers and the routing agents add a little.
// measured is the ratio on these 3 s runs at each shard count, and the bound
// is 0.004 above it: a tx-done for one hop in 250 coming back reads above it.
// While tx-dones were scheduled, a hop that waited for the wire cost two
// events (1.32 per hop on grid, 1.44 on fattree).
func TestEventsPerPacketHop(t *testing.T) {
	const margin = 0.004
	for _, tc := range []struct {
		name     string
		shards   int
		measured float64
	}{
		{"grid", 1, 1.00088},
		{"grid", 2, 1.00088},
		{"fattree", 1, 1.00016},
		{"fattree", 2, 1.00016},
	} {
		spec, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Duration = 3 * time.Second
		if tc.name == "fattree" {
			spec.RouteSync = RouteSyncProtocol
		}
		spec.Shards = tc.shards
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
			t.Fatalf("%s, %d shard(s): only %d packet-hops, the run is too small to judge", tc.name, tc.shards, hops)
		}
		if ratio := float64(res.Perf.Events) / float64(hops); ratio > tc.measured+margin {
			t.Errorf("%s, %d shard(s): %d events for %d packet-hops = %.5f per hop, want <= %.5f",
				tc.name, tc.shards, res.Perf.Events, hops, ratio, tc.measured+margin)
		} else {
			t.Logf("%s, %d shard(s): %.5f events per packet-hop", tc.name, tc.shards, ratio)
		}
	}
}

// A link counts a packet as sent by the clock, with no event at the end of a
// serialisation to carry the clock there; an aggregate probe must therefore
// read every clock at its sampling instant in serial and sharded runs alike.
// Sampled every 100 µs, under a tenth of a serialisation, most samples land
// mid-packet.
func TestAggregateSentCountersSerialEqualsSharded(t *testing.T) {
	spec, err := Lookup("grid")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = time.Second
	spec.Probes = []probe.Spec{
		{Target: "links.*.sent_packets", Interval: 100 * time.Microsecond},
		{Target: "links.*.sent_bytes", Interval: 100 * time.Microsecond},
	}
	serial, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 2
	sharded, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Series, sharded.Series) {
		t.Fatal("aggregate sent counters differ between the serial and the 2-shard run")
	}
	sent := 0
	for _, l := range serial.Links {
		sent += l.SentPackets
	}
	pts := serial.Series[0].Points
	if last := pts[len(pts)-1].V; last != float64(sent) {
		t.Fatalf("the sample at the end of the run reads %v packets sent, the result %d", last, sent)
	}
}
