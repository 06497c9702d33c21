package netsim

import (
	"testing"
	"testing/quick"
)

func mkpkt(size int) *Packet {
	return &Packet{
		Proto: ProtoUDP,
		Src:   Addr{Host: "a", Port: 1000},
		Dst:   Addr{Host: "b", Port: 2000},
		Size:  size,
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue(10, 0)
	var in []*Packet
	for i := 0; i < 5; i++ {
		p := mkpkt(100 + i)
		in = append(in, p)
		if d := q.Enqueue(p); d != nil {
			t.Fatalf("unexpected drop on enqueue %d", i)
		}
	}
	for i := 0; i < 5; i++ {
		got := q.Dequeue()
		if got != in[i] {
			t.Fatalf("dequeue %d returned wrong packet", i)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue on empty queue should return nil")
	}
}

func TestQueuePacketLimitDropTail(t *testing.T) {
	q := NewQueue(3, 0)
	for i := 0; i < 3; i++ {
		if d := q.Enqueue(mkpkt(100)); d != nil {
			t.Fatalf("drop before limit at %d", i)
		}
	}
	extra := mkpkt(100)
	if d := q.Enqueue(extra); d != extra {
		t.Fatal("drop-tail should drop the arriving packet")
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	st := q.Stats()
	if st.DroppedPackets != 1 || st.DroppedBytes != 100 {
		t.Fatalf("drop stats = %+v", st)
	}
}

func TestQueueByteLimit(t *testing.T) {
	q := NewQueue(0, 250)
	if q.Enqueue(mkpkt(100)) != nil || q.Enqueue(mkpkt(100)) != nil {
		t.Fatal("unexpected drops under byte limit")
	}
	p := mkpkt(100)
	if q.Enqueue(p) != p {
		t.Fatal("expected byte-limit overflow drop")
	}
	if q.Bytes() != 200 {
		t.Fatalf("Bytes = %d, want 200", q.Bytes())
	}
	// A smaller packet still fits.
	if q.Enqueue(mkpkt(50)) != nil {
		t.Fatal("50-byte packet should fit in remaining 50 bytes")
	}
}

func TestQueueOversizedPacketDropped(t *testing.T) {
	q := NewQueue(0, 100)
	big := mkpkt(500)
	if q.Enqueue(big) != big {
		t.Fatal("a packet larger than the byte limit cannot be admitted to an empty queue")
	}
	if q.Len() != 0 {
		t.Fatal("queue should remain empty")
	}
}

func TestQueuePeekDoesNotRemove(t *testing.T) {
	q := NewQueue(5, 0)
	if q.Peek() != nil {
		t.Fatal("Peek on empty queue should be nil")
	}
	p := mkpkt(10)
	q.Enqueue(p)
	if q.Peek() != p || q.Len() != 1 {
		t.Fatal("Peek should not remove the packet")
	}
}

func TestQueueStatsDepthTracking(t *testing.T) {
	q := NewQueue(10, 0)
	q.Enqueue(mkpkt(100))
	q.Enqueue(mkpkt(200))
	q.Dequeue()
	q.Enqueue(mkpkt(50))
	st := q.Stats()
	if st.MaxDepthPackets != 2 {
		t.Fatalf("MaxDepthPackets = %d, want 2", st.MaxDepthPackets)
	}
	if st.MaxDepthBytes != 300 {
		t.Fatalf("MaxDepthBytes = %d, want 300", st.MaxDepthBytes)
	}
	if st.DequeuedPackets != 1 || st.DequeuedBytes != 100 {
		t.Fatalf("dequeue stats wrong: %+v", st)
	}
}

func TestQueueConstructorValidation(t *testing.T) {
	for _, tc := range []struct{ p, b int }{{0, 0}, {-1, 10}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQueue(%d,%d) should panic", tc.p, tc.b)
				}
			}()
			NewQueue(tc.p, tc.b)
		}()
	}
}

func TestEnqueueNilPanics(t *testing.T) {
	q := NewQueue(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue(nil) should panic")
		}
	}()
	q.Enqueue(nil)
}

func TestDropPolicyString(t *testing.T) {
	if DropTail.String() != "drop-tail" || DropHead.String() != "drop-head" {
		t.Fatal("unexpected DropPolicy names")
	}
	if DropPolicy(9).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

// Property: conservation — every enqueued packet is eventually either dequeued
// or counted as dropped, and byte accounting matches.
func TestPropertyQueueConservation(t *testing.T) {
	f := func(sizes []uint16, limit uint8) bool {
		lim := int(limit%20) + 1
		q := NewQueue(lim, 0)
		var enq int
		for _, s := range sizes {
			size := int(s%1400) + 1
			q.Enqueue(mkpkt(size))
			enq++
		}
		var deq int
		for q.Dequeue() != nil {
			deq++
		}
		st := q.Stats()
		// Every packet presented to the queue ends up exactly once as either
		// drained or dropped.
		if deq+st.DroppedPackets != enq {
			return false
		}
		return q.Bytes() == 0 && q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds the configured limits.
func TestPropertyQueueLimitsRespected(t *testing.T) {
	f := func(sizes []uint16, pktLimit, byteLimitKB uint8) bool {
		pl := int(pktLimit % 16)
		bl := int(byteLimitKB%16) * 1024
		if pl == 0 && bl == 0 {
			pl = 1
		}
		q := NewQueue(pl, bl)
		for _, s := range sizes {
			q.Enqueue(mkpkt(int(s%1400) + 1))
			if pl > 0 && q.Len() > pl {
				return false
			}
			if bl > 0 && q.Bytes() > bl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolAndAddrStrings(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(99).String() != "proto(99)" {
		t.Fatal("unknown protocol formatting wrong")
	}
	a := Addr{Host: "mit", Port: 80}
	if a.String() != "mit:80" {
		t.Fatalf("Addr.String() = %q", a.String())
	}
	k := FlowKey{Proto: ProtoTCP, Src: a, Dst: Addr{Host: "utah", Port: 9}}
	if k.Reverse().Src.Host != "utah" || k.Reverse().Dst.Host != "mit" {
		t.Fatal("FlowKey.Reverse wrong")
	}
	if k.String() == "" || (&Packet{Proto: ProtoTCP, Src: a, Dst: a, Size: 1}).String() == "" {
		t.Fatal("string methods should be non-empty")
	}
}

func TestPacketKey(t *testing.T) {
	k := mkpkt(77).Key()
	if k.Proto != ProtoUDP || k.Src.Host != "a" || k.Dst.Host != "b" {
		t.Fatalf("Key() = %+v", k)
	}
}
