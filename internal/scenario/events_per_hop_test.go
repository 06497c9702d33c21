package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/probe"
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
