package netsim

import (
	"math/rand"
	"testing"
)

// refQueue is the reference drop-tail FIFO: a plain slice, with the rules of
// Queue stated once each and nothing clever. A packet is admitted when one
// more packet and its bytes stay within the limits in force (zero is
// unlimited); a routing packet's limits are raised by the control-plane
// reserve.
type refQueue struct {
	limitPackets, limitBytes int
	pkts                     []*Packet
	bytes                    int
	stats                    QueueStats
}

func (r *refQueue) Enqueue(p *Packet) *Packet {
	lp, lb := r.limitPackets, r.limitBytes
	if p.Proto == ProtoRoute && lp > 0 {
		lp += RouteReservePackets
	}
	if p.Proto == ProtoRoute && lb > 0 {
		lb += RouteReserveBytes
	}
	if (lp > 0 && len(r.pkts)+1 > lp) || (lb > 0 && r.bytes+p.Size > lb) {
		r.stats.DroppedPackets++
		r.stats.DroppedBytes += int64(p.Size)
		return p
	}
	r.pkts = append(r.pkts, p)
	r.bytes += p.Size
	r.stats.EnqueuedPackets++
	r.stats.EnqueuedBytes += int64(p.Size)
	r.stats.MaxDepthPackets = max(r.stats.MaxDepthPackets, len(r.pkts))
	r.stats.MaxDepthBytes = max(r.stats.MaxDepthBytes, r.bytes)
	return nil
}

func (r *refQueue) Dequeue() *Packet {
	if len(r.pkts) == 0 {
		return nil
	}
	p := r.pkts[0]
	r.pkts = r.pkts[1:]
	r.bytes -= p.Size
	r.stats.DequeuedPackets++
	r.stats.DequeuedBytes += int64(p.Size)
	return p
}

func (r *refQueue) Peek() *Packet {
	if len(r.pkts) == 0 {
		return nil
	}
	return r.pkts[0]
}

// Queue traces. A trace is a byte string: two bytes of configuration (the
// first picks the packet and byte limits; the second once picked an ECN
// threshold and is skipped, so the seed corpus keeps its meaning), then
// operations. The limits are small
// enough that traces fill a queue and its routing reserve, and wrap and grow
// its ring, within a few dozen operations; packets are from 40 to 3000 bytes,
// so a byte-limited queue drops on bytes alone.
var (
	queueTracePacketLimits = [8]int{0, 1, 2, 3, 5, 16, 20, 40}
	queueTraceByteLimits   = [4]int{0, 1500, 6000, 20000}
	queueTraceSizes        = [4]int{40, 576, 1500, 3000}
)

// queueInterp feeds one trace to a Queue and to the reference in lockstep.
type queueInterp struct {
	t      testing.TB
	data   []byte
	pos    int
	q      *Queue
	ref    *refQueue
	nextID int
}

func (in *queueInterp) byte() int {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return int(in.data[in.pos-1])
}

// pktID is a packet's trace number, or 0 for none.
func pktID(p *Packet) int {
	if p == nil {
		return 0
	}
	return p.Payload.(int)
}

// enqueue offers a twin packet to each queue: one byte chooses its size and
// protocol.
func (in *queueInterp) enqueue(b int) {
	in.nextID++
	twin := func() *Packet {
		p := &Packet{Proto: ProtoTCP, Size: queueTraceSizes[b%4], Payload: in.nextID}
		if b/4%2 == 1 {
			p.Proto = ProtoRoute
		}
		return p
	}
	p, rp := twin(), twin()
	dropped, refDropped := in.q.Enqueue(p), in.ref.Enqueue(rp)
	if (dropped == p) != (refDropped == rp) || (dropped != nil && dropped != p) {
		in.t.Fatalf("trace %x op at %d: enqueue of packet %d (%+v): Queue dropped=%v, reference dropped=%v",
			in.data, in.pos, in.nextID, *rp, dropped != nil, refDropped != nil)
	}
}

func (in *queueInterp) check(op string, got, want *Packet) {
	if pktID(got) != pktID(want) || in.q.Len() != len(in.ref.pkts) || in.q.Bytes() != in.ref.bytes ||
		in.q.Stats() != in.ref.stats || pktID(in.q.Peek()) != pktID(in.ref.Peek()) {
		in.t.Fatalf("trace %x op at %d: %s:\n    Queue     packet %d, len %d, bytes %d, head %d, %+v\n    reference packet %d, len %d, bytes %d, head %d, %+v",
			in.data, in.pos, op, pktID(got), in.q.Len(), in.q.Bytes(), pktID(in.q.Peek()), in.q.Stats(),
			pktID(want), len(in.ref.pkts), in.ref.bytes, pktID(in.ref.Peek()), in.ref.stats)
	}
}

func (in *queueInterp) op() {
	switch code := in.byte() % 8; code {
	case 0, 1, 2:
		in.enqueue(in.byte())
		in.check("enqueue", nil, nil)
	case 3:
		// A same-instant burst of one kind of packet, often past the limit
		// and into the routing reserve.
		b := in.byte()
		for n := 2 + in.byte()%12; n > 0; n-- {
			in.enqueue(b)
		}
		in.check("burst", nil, nil)
	case 4, 5:
		in.check("dequeue", in.q.Dequeue(), in.ref.Dequeue())
	case 6:
		for n := 1 + in.byte()%8; n > 0; n-- {
			in.check("drain", in.q.Dequeue(), in.ref.Dequeue())
		}
	case 7:
		in.check("peek", in.q.Peek(), in.ref.Peek())
	}
}

// checkQueueTrace is the differential check shared by the seeded test and the
// fuzz target.
func checkQueueTrace(t testing.TB, data []byte) {
	t.Helper()
	in := &queueInterp{t: t, data: data}
	c0 := in.byte()
	in.byte()
	lp, lb := queueTracePacketLimits[c0%8], queueTraceByteLimits[c0/8%4]
	if lp == 0 && lb == 0 {
		lp = 4
	}
	in.q = NewQueue(lp, lb)
	in.ref = &refQueue{limitPackets: lp, limitBytes: lb}
	for in.pos < len(in.data) {
		in.op()
	}
	for in.q.Len()+len(in.ref.pkts) > 0 {
		in.check("final drain", in.q.Dequeue(), in.ref.Dequeue())
	}
}

// TestQueueMatchesReference holds Queue to the slice-backed reference over
// seeded random traces. Hand-made mutants of queue.go it was seen to catch:
// the routing reserve dropped from the packet limit, or from the byte limit;
// the ring's growth capped one slot short of the packet limit plus the
// reserve; MaxDepthBytes not tracked; Dequeue's head wrap tested with `>` for
// `==`.
func TestQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trace := 0; trace < 3000; trace++ {
		data := make([]byte, 2+rng.Intn(120))
		rng.Read(data)
		checkQueueTrace(t, data)
	}
}

// FuzzQueueOps is the same differential check over fuzzer-chosen traces. The
// seed corpus lives in testdata/fuzz/FuzzQueueOps.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("trace longer than any queue worth shrinking")
		}
		checkQueueTrace(t, data)
	})
}
