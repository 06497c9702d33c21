// Package tcp implements a simulation TCP: connection establishment and
// teardown, a reliable in-order byte stream with cumulative ACKs, fast
// retransmit, retransmission timeouts with Karn/Jacobson RTT estimation
// (via RFC 1323-style timestamps), delayed acknowledgements and receiver
// flow control.
//
// Congestion control is pluggable between two providers, mirroring the
// paper's comparison:
//
//   - "native": a Linux-2.2-like Reno controller kept inside TCP (initial
//     window of 2 segments, ACK counting).
//   - "cm": congestion control offloaded to the Congestion Manager. TCP is an
//     in-kernel CM client using the request/callback API with direct function
//     calls, exactly as §3.2 of the paper describes: data is sent only from
//     cmapp_send callbacks, ACK arrivals call cm_update, duplicate ACKs and
//     timeouts report transient/persistent congestion, and the IP output hook
//     charges transmissions with cm_notify.
//
// # Closing
//
// The close state machine is simplified to five states. Close queues a FIN
// behind the data (a half-close: the endpoint keeps receiving and
// acknowledging). The side that closes first goes ESTABLISHED → FIN-WAIT when
// its FIN leaves (FIN-WAIT covers both FIN_WAIT_1 and FIN_WAIT_2) and, once
// its FIN is acknowledged and the peer's FIN has arrived, → TIME-WAIT; if the
// peer's FIN arrives first it passes through CLOSING. The side that receives
// a FIN first goes ESTABLISHED → CLOSE-WAIT, fires OnClosed, and stays there
// until the application calls Close; then its FIN takes it to CLOSING (which
// thus doubles as LAST_ACK) and the acknowledgement of that FIN to TIME-WAIT.
// Both sides end in TIME-WAIT — there is no separate CLOSED after LAST_ACK —
// and an application that never answers the peer's FIN keeps its endpoint in
// CLOSE-WAIT and the peer's in FIN-WAIT for the rest of the run. There are no
// resets, no simultaneous open, and no 2MSL timer.
//
// Entering TIME-WAIT is where a connection's cost ends: the retransmission
// and delayed-ACK timers are stopped, the CM client calls cm_close (the
// macroflow keeps its congestion state for the next connection), and the
// endpoint hands its host binding to a timeWait record that does the only two
// things a TIME-WAIT connection does: count a late segment, and re-acknowledge
// late data or a late FIN. OnTimeWait fires then; nothing in this package or
// in the host refers to the Endpoint afterwards, and Stats on a handle that is
// still held folds in the record's counters. Records are never reaped within
// a run: a late segment must draw the same ACK at whatever time it arrives
// (no timer makes the answer depend on when), and a run's connections are
// bounded by its workload.
//
// # Objects and owners
//
// An Endpoint is one allocation: both timers and the congestion controller
// are fields, and the timer and grant callbacks are package-level functions or
// methods that get the endpoint back as their argument. Application callbacks
// (OnEstablished, OnReceive, OnClosed, OnTimeWait, a Listener's accept) take
// the endpoint and one owner word the application set with SetOwner (Listen
// takes the listener's), so an application with many connections registers the
// same functions on all of them and allocates no closure per connection. The
// references run one way: endpoint → owner. Nothing in the simulator holds an
// endpoint past TIME-WAIT, so it lives exactly as long as its owner keeps the
// handle; an owner that outlives its connections (a slab entry, an
// application) drops the handle in OnTimeWait. Endpoints are never pooled or
// placed in a slab. A Listener that serves one connection calls Close from its
// accept callback and is collectable from then on.
package tcp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Segment is a TCP segment as carried in a netsim.Packet payload. Sequence
// numbers are absolute 64-bit byte offsets (no wraparound handling is needed
// at simulation scale). Payload bytes are synthetic: only lengths travel, and
// receivers reconstruct the stream from sequence arithmetic.
//
// Segments an endpoint sends come from a pool and die with the packet that
// carries them (netsim.PooledPayload). The rule for receivers: read the
// segment during Handle, copy the fields you need, keep no reference.
// Endpoint and Listener follow it — the out-of-order list stores byte
// intervals, never segments. A &Segment{} literal is never pooled.
type Segment struct {
	Seq int64 // sequence number of the first payload byte (or of SYN/FIN)
	Ack int64 // cumulative acknowledgement: next byte expected
	Len int   // payload length in bytes

	SYN bool
	FIN bool
	ACK bool

	// Wnd is the advertised receive window in bytes.
	Wnd int

	// TSVal and TSEcr are RFC 1323 timestamps used for RTT sampling.
	TSVal time.Duration
	TSEcr time.Duration

	// Retransmit marks retransmitted segments (used only for statistics and
	// to suppress RTT sampling on ambiguous segments, per Karn's rule).
	Retransmit bool

	// pooled marks segments drawn from segmentPool; only those go back to it,
	// and clearing it on release makes a second release a no-op.
	pooled bool
}

// segmentPool recycles segments like netsim's packet pool recycles packets: a
// package-level sync.Pool, so no simulation retains anything and concurrent
// simulations (sharded runs, campaign workers) need no lock.
var segmentPool = sync.Pool{New: func() any { return new(Segment) }}

// released is what a segment reads as once it has been handed back: values no
// live segment has, so a receiver that kept a reference past Handle computes
// nonsense at once instead of silently reading the pool's next user.
var released = Segment{Seq: -1 << 62, Ack: -1 << 62, Len: -1 << 30, Wnd: -1 << 30, TSVal: -1, TSEcr: -1}

// newSegment returns a pooled segment holding v. Ownership passes to the
// packet it is attached to; the sender must not touch it after Output.
func newSegment(v Segment) *Segment {
	s := segmentPool.Get().(*Segment)
	*s = v
	s.pooled = true
	return s
}

// ReleasePayload implements netsim.PooledPayload.
func (s *Segment) ReleasePayload() {
	if !s.pooled {
		return
	}
	*s = released
	segmentPool.Put(s)
}

// seqLen returns the amount of sequence space the segment occupies.
func (s *Segment) seqLen() int64 {
	n := int64(s.Len)
	if s.SYN {
		n++
	}
	if s.FIN {
		n++
	}
	return n
}

// String formats the segment for diagnostics.
func (s *Segment) String() string {
	flags := ""
	if s.SYN {
		flags += "S"
	}
	if s.FIN {
		flags += "F"
	}
	if s.ACK {
		flags += "."
	}
	return fmt.Sprintf("seq=%d ack=%d len=%d %s", s.Seq, s.Ack, s.Len, flags)
}

// headerOverhead is the wire overhead of one segment: IP header, TCP header
// and the timestamp option.
const headerOverhead = netsim.IPHeaderSize + netsim.TCPHeaderSize + netsim.TCPTimestampOption

// wireSize returns the on-the-wire size of a segment.
func wireSize(seg *Segment) int { return headerOverhead + seg.Len }

// State is the TCP connection state (simplified: the states needed for
// connection setup, data transfer and orderly close).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait   // our FIN sent; its ACK or the peer's FIN still to come
	StateCloseWait // peer's FIN received, we may still send
	StateClosing   // both FINs seen, ours not yet acknowledged (also LAST_ACK)
	StateTimeWait  // fully closed; a timeWait record holds the binding
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateListen:
		return "listen"
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateFinWait:
		return "fin-wait"
	case StateCloseWait:
		return "close-wait"
	case StateClosing:
		return "closing"
	case StateTimeWait:
		return "time-wait"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}
