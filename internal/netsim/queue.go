package netsim

import "fmt"

// DropPolicy selects which packet a full buffer discards. A link's Queue is
// always drop-tail; the policy is a choice for application-level buffers
// (app.VatConfig).
type DropPolicy int

const (
	// DropTail discards the arriving packet when the buffer is full. This is
	// the de-facto standard for router buffers that the paper calls out.
	DropTail DropPolicy = iota
	// DropHead discards the oldest buffered packet to make room for the
	// arriving one. The paper's adaptive vat application uses
	// drop-from-head behaviour in its application-level buffer.
	DropHead
)

// String names the drop policy.
func (p DropPolicy) String() string {
	switch p {
	case DropTail:
		return "drop-tail"
	case DropHead:
		return "drop-head"
	default:
		return fmt.Sprintf("drop-policy(%d)", int(p))
	}
}

// Control-plane headroom: a queue at its configured limit still admits up to
// RouteReservePackets routing-protocol (ProtoRoute) packets — and, on
// byte-limited queues, RouteReserveBytes extra bytes — beyond it. Without the
// reserve, a data flow saturating a drop-tail buffer starves the control
// plane outright: every periodic refresh tail-drops, the downstream peer ages
// out its entire table, and the "converged" network blackholes itself. Real
// routers solve this the same way, with dedicated buffer for internetwork-
// control traffic. Nothing but the routing protocol sends ProtoRoute, so the
// reserve is invisible to every data-only scenario.
const (
	RouteReservePackets = 8
	RouteReserveBytes   = 16 << 10
)

// QueueStats are cumulative counters maintained by a Queue.
type QueueStats struct {
	EnqueuedPackets int
	EnqueuedBytes   int64
	DroppedPackets  int
	DroppedBytes    int64
	DequeuedPackets int
	DequeuedBytes   int64
	MaxDepthPackets int
	MaxDepthBytes   int
}

// Queue is a finite drop-tail FIFO packet buffer with configurable limits,
// standing in for a router or NIC transmit buffer.
//
// Limits may be expressed in packets, bytes, or both; a zero limit means
// "unlimited" in that dimension, but at least one limit must be set.
//
// The packets are linked through their own next field, so enqueue and
// dequeue are O(1), allocate nothing, and a queue costs the same whatever
// its depth. A packet is in at most one queue or link channel at a time.
type Queue struct {
	limitPackets int
	limitBytes   int

	head, tail *Packet // oldest and newest queued packet
	count      int     // number of queued packets
	bytes      int
	stats      QueueStats
}

// NewQueue returns a queue limited to limitPackets packets and limitBytes
// bytes (zero disables the respective limit). It panics if both limits are
// zero or either is negative.
func NewQueue(limitPackets, limitBytes int) *Queue {
	if limitPackets < 0 || limitBytes < 0 {
		panic("netsim: negative queue limit")
	}
	if limitPackets == 0 && limitBytes == 0 {
		panic("netsim: queue needs at least one limit")
	}
	return &Queue{limitPackets: limitPackets, limitBytes: limitBytes}
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }

// Bytes returns the number of queued bytes.
func (q *Queue) Bytes() int { return q.bytes }

// Stats returns a copy of the cumulative counters.
func (q *Queue) Stats() QueueStats { return q.stats }

func (q *Queue) wouldOverflow(p *Packet) bool {
	lp, lb := q.limitPackets, q.limitBytes
	if p.Proto == ProtoRoute {
		// Routing packets may dip into the control-plane reserve.
		if lp > 0 {
			lp += RouteReservePackets
		}
		if lb > 0 {
			lb += RouteReserveBytes
		}
	}
	if lp > 0 && q.count+1 > lp {
		return true
	}
	if lb > 0 && q.bytes+p.Size > lb {
		return true
	}
	return false
}

// Enqueue appends the packet, or drops it if the queue is full: it returns p
// when p was dropped and nil when it was queued.
func (q *Queue) Enqueue(p *Packet) (dropped *Packet) {
	if p == nil {
		panic("netsim: Enqueue(nil)")
	}
	if q.wouldOverflow(p) {
		q.stats.DroppedPackets++
		q.stats.DroppedBytes += int64(p.Size)
		return p
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.count++
	q.bytes += p.Size
	q.stats.EnqueuedPackets++
	q.stats.EnqueuedBytes += int64(p.Size)
	if q.count > q.stats.MaxDepthPackets {
		q.stats.MaxDepthPackets = q.count
	}
	if q.bytes > q.stats.MaxDepthBytes {
		q.stats.MaxDepthBytes = q.bytes
	}
	return nil
}

// Dequeue removes and returns the oldest packet, or nil if the queue is
// empty.
func (q *Queue) Dequeue() *Packet {
	p := q.head
	if p == nil {
		return nil
	}
	if q.head = p.next; q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.count--
	q.bytes -= p.Size
	q.stats.DequeuedPackets++
	q.stats.DequeuedBytes += int64(p.Size)
	return p
}

// Peek returns the oldest packet without removing it, or nil if empty.
func (q *Queue) Peek() *Packet { return q.head }
