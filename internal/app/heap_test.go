package app

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/race"
)

// liveHeap is the live heap after two collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// An application keeps counters, not traces: once a layered stream is
// running, its live heap does not grow with the packets it sends. Both modes
// stream over a 1 Mbps bottleneck; the live heap is read after 5 s and after
// 25 s with the whole environment still reachable. With go1.24 on
// linux/amd64 both grow about 4.9 KB over some 2 460 packets (2 B a packet,
// now and then 4 B), a one-off that a 60 s run does not repeat. A trace point
// per packet, as the ALF server once kept, costs 38 B a packet.
func TestLayeredStreamHeapDoesNotGrowWithTraffic(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations count as live heap")
	}
	const perPacket = 6 // bytes of live heap per packet sent, at most
	for _, mode := range []LayeredMode{ModeALF, ModeRateCallback} {
		e := newAppEnv(t, bottleneck(1*netsim.Mbps, 20*time.Millisecond))
		srv, client := layeredSetup(t, e, mode, FeedbackPolicy{})
		srv.Start()
		e.sched.RunFor(5 * time.Second)
		heap, packets := liveHeap(), srv.Stats().PacketsSent
		e.sched.RunFor(20 * time.Second)
		grown, sent := liveHeap()-heap, srv.Stats().PacketsSent-packets
		runtime.KeepAlive(e)
		runtime.KeepAlive(client)
		t.Logf("%s: live heap grew %d B over %d packets", mode, grown, sent)
		if sent < 1000 {
			t.Fatalf("%s: only %d packets sent in 20 s", mode, sent)
		}
		if grown > perPacket*sent {
			t.Errorf("%s: live heap grew %d B over %d packets, more than %d B per packet", mode, grown, sent, perPacket)
		}
		srv.Stop()
	}
}
