package netsim

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/simtime"
)

// An internet-scale topology holds tens of thousands of link directions, most
// of which never carry a packet: the struct stays within 296 bytes and owns no
// closures (the only allocation of NewLink is the Link itself). The link is
// kept in linkSink, as a topology keeps its links: one that does not outlive
// the call may live on the stack.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got > 296 {
		t.Errorf("Link is %d bytes, want <= 296", got)
	}
	sched := simtime.NewScheduler()
	if allocs := testing.AllocsPerRun(100, func() { linkSink = NewLink(sched, LinkConfig{Name: "l"}, nil) }); allocs != 1 {
		t.Errorf("NewLink allocated %.0f objects, want 1", allocs)
	}
}

var linkSink *Link

// A Packet stays within the 128-byte size class: TTL shares the flags' word,
// which left a word for the CM flow handle.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 128 {
		t.Errorf("Packet is %d bytes, want <= 128", got)
	}
	p := NewPacket()
	defer p.Release()
	if _, ok := p.CMFlow(); ok {
		t.Error("a new packet carries a CM flow handle")
	}
	p.SetCMFlow(0)
	if h, ok := p.CMFlow(); !ok || h != 0 {
		t.Errorf("CMFlow() = %d, %v after SetCMFlow(0)", h, ok)
	}
}

// The events-per-hop gate: a packet that finds the wire free costs one event,
// its hand-up; only a packet that had to wait costs a second, the tx-done that
// started it.
func TestEventsPerHop(t *testing.T) {
	const n = 50
	cfg := LinkConfig{Name: "hop", Bandwidth: 10 * Mbps, Delay: time.Millisecond, QueuePackets: n}
	txTime := cfg.Bandwidth.TransmitTime(1000)
	send := func(l *Link) {
		p := NewPacket()
		p.Size = 1000
		if !l.Send(p) {
			t.Fatal("send failed")
		}
	}
	for _, tc := range []struct {
		name string
		gap  time.Duration
		want uint64
	}{
		{"spaced wider than a serialisation", txTime + time.Nanosecond, n},
		{"offered exactly as the wire frees", txTime, n},
		{"one back-to-back burst", 0, 2*n - 1},
	} {
		sched := simtime.NewScheduler()
		delivered := 0
		l := NewLink(sched, cfg, ReceiverFunc(func(p *Packet) { delivered++; p.Release() }))
		for i := 0; i < n; i++ {
			sched.RunUntil(time.Duration(i) * tc.gap)
			send(l)
		}
		sched.Run()
		if delivered != n {
			t.Errorf("%s: delivered %d packets, want %d", tc.name, delivered, n)
		}
		if got := sched.Executed(); got != tc.want {
			t.Errorf("%s: %d packets fired %d events, want %d", tc.name, n, got, tc.want)
		}
	}
}

// Utilization never reads above 1, even mid-packet on a saturated link where
// BusyTime already holds the whole packet, and equals BusyTime / Now whenever
// the wire is idle.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	sched := simtime.NewScheduler()
	l := NewLink(sched, LinkConfig{Name: "sat", Bandwidth: 10 * Mbps, Delay: time.Millisecond, QueuePackets: 8},
		ReceiverFunc(func(p *Packet) { p.Release() }))
	// A source that keeps the queue full for 50 ms, then stops.
	var refill func()
	refill = func() {
		for l.QueueLen() < 8 {
			p := NewPacket()
			p.Size = 1500
			l.Send(p)
		}
		if sched.Now() < 50*time.Millisecond {
			sched.After(700*time.Microsecond, refill)
		}
	}
	sched.After(time.Millisecond, refill)
	samples, busy := 0, 0
	for sched.Step() {
		u := l.Utilization()
		if u > 1 {
			t.Fatalf("t=%v: Utilization = %v", sched.Now(), u)
		}
		samples++
		if sched.Now() < l.txEnd {
			busy++
		} else if want := float64(l.Stats().BusyTime) / float64(sched.Now()); u != want {
			t.Fatalf("t=%v, wire idle: Utilization = %v, want BusyTime/Now = %v", sched.Now(), u, want)
		}
	}
	if busy == 0 || busy == samples {
		t.Fatalf("%d of %d samples taken mid-packet: the test did not see both states", busy, samples)
	}
	if u := l.Utilization(); u < 0.5 {
		t.Fatalf("Utilization = %v after a saturated run", u)
	}
}

// A duplex is one object holding both directions, laid out so that a slab of
// them never puts bytes of two directions on one cache line, wherever within
// the first 16 bytes of a line the slab starts: under sharded execution the
// forward link is written by one shard and the reverse link by another.
func TestDuplexLayout(t *testing.T) {
	var d Duplex
	size, link := unsafe.Sizeof(d), unsafe.Sizeof(d.fwd)
	fwd, rev := unsafe.Offsetof(d.fwd), unsafe.Offsetof(d.rev)
	if size > 2*384+16 {
		t.Errorf("Duplex is %d bytes, more than the two Links and the Duplex it replaces", size)
	}
	line := func(b uintptr) uintptr { return b / cacheLine }
	for start := uintptr(0); start <= 16; start += 8 {
		if line(start+fwd+link-1) >= line(start+rev) || line(start+rev+link-1) >= line(start+size+fwd) {
			t.Errorf("in a slab starting %d bytes into a cache line, directions at %d and %d of %d bytes share a line",
				start, fwd, rev, size)
		}
	}
	sched := simtime.NewScheduler()
	if allocs := testing.AllocsPerRun(100, func() { NewDuplexOn(sched, sched, LinkConfig{Name: "d"}) }); allocs != 3 {
		t.Errorf("NewDuplexOn allocated %.0f objects, want 3 (the duplex and two names)", allocs)
	}
	for _, n := range []int{1, 8, 100} {
		slab := make([]Duplex, n)
		if off := uintptr(unsafe.Pointer(&slab[0])) % cacheLine; off > 16 {
			t.Errorf("a slab of %d duplexes starts %d bytes into a cache line", n, off)
		}
		last := &slab[n-1]
		if allocs := testing.AllocsPerRun(100, func() { last.Init(sched, sched, LinkConfig{}, "a-fwd", "a-rev") }); allocs != 0 {
			t.Errorf("Duplex.Init allocated %.0f objects, want 0", allocs)
		}
		if last.Forward != &last.fwd || last.Reverse != &last.rev {
			t.Error("Forward and Reverse must point at the duplex's own directions")
		}
		if last.Forward.SortKey() != nameKey("a-fwd") || last.Reverse.SortKey() != nameKey("a-rev") {
			t.Error("direction sort keys must hash the names Init was given")
		}
	}
}
