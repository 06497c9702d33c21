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

// ClonePayload implements netsim.PooledPayload: a duplicated packet gets its
// own segment, released independently of the original's.
func (s *Segment) ClonePayload() any {
	if !s.pooled {
		return s
	}
	return newSegment(*s)
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
	StateFinWait   // our FIN sent, not yet acknowledged
	StateCloseWait // peer's FIN received, we may still send
	StateClosing   // both FINs in flight
	StateTimeWait  // fully closed
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
