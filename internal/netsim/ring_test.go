package netsim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func pkt(size int) *Packet {
	return &Packet{Proto: ProtoUDP, Src: Addr{Host: "a", Port: 1}, Dst: Addr{Host: "b", Port: 2}, Size: size}
}

// The ring must wrap cleanly: interleave enqueues and dequeues so head walks
// around the backing array several times, and verify strict FIFO order.
func TestQueueRingWraparoundFIFO(t *testing.T) {
	q := NewQueue(4, 0)
	next := 0     // next packet id to enqueue
	expected := 0 // next packet id we expect to dequeue
	enq := func(n int) {
		for i := 0; i < n; i++ {
			p := pkt(100)
			p.ChargeBytes = next // tag with id
			next++
			if dropped := q.Enqueue(p); dropped != nil {
				t.Fatalf("unexpected drop of packet %d", p.ChargeBytes)
			}
		}
	}
	deq := func(n int) {
		for i := 0; i < n; i++ {
			p := q.Dequeue()
			if p == nil {
				t.Fatalf("Dequeue returned nil, expected packet %d", expected)
			}
			if p.ChargeBytes != expected {
				t.Fatalf("Dequeue order: got packet %d, want %d", p.ChargeBytes, expected)
			}
			expected++
		}
	}
	// Drive head around the 4-slot ring many times with varying occupancy.
	enq(3)
	deq(2)
	enq(3) // wraps: tail passes the end of the array
	deq(4)
	for round := 0; round < 10; round++ {
		enq(4) // fill completely
		deq(3)
		enq(2)
		deq(3) // drain completely
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after balanced interleaving, want 0", q.Len())
	}
	if q.Dequeue() != nil {
		t.Fatal("Dequeue on empty ring should return nil")
	}
}

// A byte-limited queue has no packet bound, so the ring must grow while
// preserving FIFO order, including when the contents wrap the old array.
func TestQueueRingGrowthPreservesOrder(t *testing.T) {
	q := NewQueue(0, 1<<20)
	// Advance head so the ring is wrapped when growth happens.
	for i := 0; i < 48; i++ {
		if d := q.Enqueue(pkt(10)); d != nil {
			t.Fatal("unexpected drop")
		}
	}
	for i := 0; i < 48; i++ {
		if q.Dequeue() == nil {
			t.Fatal("unexpected empty")
		}
	}
	// Now fill beyond the initial 64-slot capacity.
	const n = 300
	for i := 0; i < n; i++ {
		p := pkt(10)
		p.ChargeBytes = i
		if d := q.Enqueue(p); d != nil {
			t.Fatalf("unexpected drop at %d", i)
		}
	}
	if q.Len() != n {
		t.Fatalf("Len() = %d, want %d", q.Len(), n)
	}
	for i := 0; i < n; i++ {
		p := q.Dequeue()
		if p == nil || p.ChargeBytes != i {
			t.Fatalf("growth broke FIFO at %d: %+v", i, p)
		}
	}
}

// Drop-tail under wraparound: a full wrapped ring drops the arrival and keeps
// its logical head.
func TestQueueRingDropTailWrapped(t *testing.T) {
	q := NewQueue(3, 0)
	// Wrap the ring first.
	q.Enqueue(pkt(1))
	q.Enqueue(pkt(1))
	q.Dequeue()
	q.Dequeue()
	for i := 0; i < 3; i++ {
		p := pkt(1)
		p.ChargeBytes = i
		q.Enqueue(p)
	}
	p := pkt(1)
	p.ChargeBytes = 99
	if dropped := q.Enqueue(p); dropped != p {
		t.Fatalf("drop-tail victim = %+v, want the arrival (id 99)", dropped)
	}
	for i := 0; i < 3; i++ {
		if got := q.Dequeue(); got == nil || got.ChargeBytes != i {
			t.Fatalf("dequeue %d after drop = %+v, want id %d", i, got, i)
		}
	}
}

// Enqueue/transmit/deliver of pooled packets over a link must not allocate in
// steady state: events come from the scheduler freelist, packets cycle
// through the pool, and the ring buffer never reallocates.
func TestPooledPacketPathZeroAlloc(t *testing.T) {
	sched := simtime.NewScheduler()
	sink := ReceiverFunc(func(p *Packet) { p.Release() })
	l := NewLink(sched, LinkConfig{Bandwidth: 10 * Mbps, Delay: time.Millisecond, QueuePackets: 64}, sink)
	send := func() {
		p := NewPacket()
		p.Proto = ProtoUDP
		p.Src = Addr{Host: "a", Port: 1}
		p.Dst = Addr{Host: "b", Port: 2}
		p.Size = 1000
		if !l.Send(p) {
			t.Fatal("send failed")
		}
		sched.Run()
	}
	// Warm the pool, the event freelist and the heap backing array.
	for i := 0; i < 64; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(500, send)
	if allocs != 0 {
		t.Fatalf("pooled enqueue/transmit/deliver allocated %.1f objects per op, want 0", allocs)
	}
}

// Released packets must be reused by NewPacket and arrive zeroed.
func TestPacketPoolReuseResetsState(t *testing.T) {
	p := NewPacket()
	p.Proto = ProtoTCP
	p.Size = 1234
	p.Control = true
	p.Payload = "payload"
	p.Release()
	q := NewPacket()
	if q.Proto != 0 || q.Size != 0 || q.Control || q.Payload != nil {
		t.Fatalf("reused packet not reset: %+v", q)
	}
	// Double release must be a no-op.
	q.Release()
	q.Release()
	// Literal packets are never pooled.
	lit := pkt(1)
	lit.Release() // no-op
	if lit.Size != 1 {
		t.Fatal("Release corrupted an unpooled packet")
	}
}

// pooledTag is a PooledPayload for tests: it counts releases, and a released
// one reads as "RELEASED", the way released segments and datagrams read as
// values no live one has.
type pooledTag struct {
	tag      string
	released int
}

func (p *pooledTag) ReleasePayload() {
	p.tag = "RELEASED"
	p.released++
}

// Release hands a pooled payload back exactly once, however often it is
// called, and leaves the payload of a literal (unpooled) packet alone: such a
// packet may be sent again.
func TestReleaseReturnsPayloadOnce(t *testing.T) {
	pl := &pooledTag{tag: "DATA"}
	p := NewPacket()
	p.Payload = pl
	p.Release()
	p.Release()
	if pl.released != 1 {
		t.Fatalf("payload released %d times by a double Release, want 1", pl.released)
	}
	lit := &pooledTag{tag: "DATA"}
	q := &Packet{Size: 1, Payload: lit}
	q.Release()
	if lit.released != 0 || q.Payload != any(lit) {
		t.Fatal("Release of a literal packet touched its payload")
	}
}
