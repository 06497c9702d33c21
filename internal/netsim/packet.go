// Package netsim is the packet-level network substrate for the Congestion
// Manager reproduction. It models what the paper's testbed provided in
// hardware: hosts connected by links with configurable bandwidth, propagation
// delay, drop-tail router queues, random (Dummynet-style) loss and optional
// Gilbert-Elliott burst loss.
//
// All components are driven by a simtime.Scheduler; nothing in this package
// uses wall-clock time, so experiments are deterministic.
package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Protocol identifies the transport protocol of a packet, mirroring the IP
// protocol field that the paper's IP-output hook uses to locate the CM flow.
type Protocol uint8

// Transport protocols used by the reproduction.
const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
	// ProtoRoute carries routing-protocol messages (internal/routeproto).
	// Routing traffic rides the same links and queues as data traffic, so it
	// shares fate with it; the number is OSPF's IP protocol number, reused
	// here for any control-plane exchange.
	ProtoRoute Protocol = 89
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoRoute:
		return "route"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Addr is a transport endpoint address: a host name stands in for an IP
// address, plus a transport port. The CM groups flows into macroflows by
// destination host, exactly as the paper's default per-destination
// aggregation does.
type Addr struct {
	Host string
	Port int
}

// String formats the address as host:port.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.Host, a.Port) }

// FlowKey identifies a unidirectional transport flow by its 5-tuple minus the
// addresses' order: protocol, source and destination. It is the key the IP
// output routine hands to the CM to find the flow to charge (paper §2.1.3).
type FlowKey struct {
	Proto Protocol
	Src   Addr
	Dst   Addr
}

// String formats the flow key for diagnostics.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s->%s", k.Proto, k.Src, k.Dst)
}

// Reverse returns the key of the reverse-direction flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Proto: k.Proto, Src: k.Dst, Dst: k.Src}
}

// Packet is a network-layer datagram. Size is the on-the-wire size in bytes
// (headers plus payload) and is what links serialise and queues count.
// Payload carries the transport-layer unit (a TCP segment, a UDP datagram)
// and is opaque to the network, except that a payload implementing
// PooledPayload shares the packet's lifetime: it is released with the packet.
//
// Hot paths obtain packets from a pool with NewPacket and hand them back with
// Release once consumed (see docs/PERF.md for the ownership rules). Packets
// built with a literal are never pooled; Release on them is a no-op (their
// payload is left alone too), so test code may treat packets as ordinary
// garbage-collected values.
type Packet struct {
	Proto Protocol
	Src   Addr
	Dst   Addr
	// Size is the total wire size in bytes, including transport and IP
	// headers. Links use it for serialisation delay and queues for
	// occupancy accounting.
	Size int
	// Payload is the transport-layer content (e.g. *tcp.Segment). Whoever
	// receives the packet may read it until the packet is released and must
	// keep no reference to it afterwards (see PooledPayload).
	Payload any

	// Control marks transport control packets (pure TCP ACKs, application
	// feedback packets) that are not data transmissions of a CM flow; the IP
	// output hook does not charge them to a macroflow.
	Control bool

	// pooled marks packets obtained from the pool; only those are returned
	// to it by Release, and the flag doubles as a double-release guard.
	pooled bool

	// TTL is the remaining hop budget. The originating host's IP output
	// routine sets it to DefaultTTL when zero; every forwarding hop decrements
	// it and discards the packet when it reaches zero, so routing loops
	// cannot circulate packets forever. It shares a word with Control and
	// pooled, which keeps a Packet at 128 bytes.
	TTL int32

	// cmFlow is the sending transport's Congestion Manager flow handle plus
	// one, so that a packet nobody stamped carries none (see SetCMFlow).
	cmFlow int64

	// ChargeBytes is the number of bytes the Congestion Manager should
	// charge for this transmission (the transport payload). Zero means
	// "charge the full wire size". Keeping CM charging in payload bytes
	// makes cm_notify consistent with the payload-byte feedback clients
	// report through cm_update.
	ChargeBytes int

	// next links the packet into the one queue or link channel that holds
	// it (see Queue and Link); txEnd is when its serialisation on the link
	// carrying it ends, set as it goes on the wire.
	next  *Packet
	txEnd time.Duration

	// srcID and dstID are the ids of Src.Host and Dst.Host in the hosts'
	// address table (node.Network), 0 while unresolved (see SetIDs).
	srcID, dstID int32
}

// packetPool recycles Packet objects across transmit/deliver cycles so the
// per-packet hot path allocates nothing in steady state. sync.Pool keeps the
// freelist safe for the package-parallel test runner; within one simulation
// everything is single-threaded.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// PooledPayload is implemented by payloads that are recycled through a pool of
// their own (tcp.Segment, udp.Datagram). Such a payload lives and dies with
// the pooled packet carrying it: Packet.Release hands it back exactly once.
// Payloads that do not implement the interface (routeproto.Message, plain
// values in tests) are garbage collected.
type PooledPayload interface {
	// ReleasePayload returns the payload to its pool. It must be a no-op for
	// a payload that was not drawn from the pool or was already released.
	ReleasePayload()
}

// NewPacket returns a zeroed packet from the pool. The caller owns it until
// it is handed to Host.Output / Link.Send, after which the network owns it:
// the link releases packets it drops, and the final receiver (the host demux)
// releases packets after delivery.
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	*p = Packet{pooled: true}
	return p
}

// Release returns a pooled packet, and with it a PooledPayload it carries, to
// their pools. It is a no-op for packets not obtained from NewPacket and for
// packets already released, so callers at end-of-life points can release
// unconditionally. Neither the packet nor its payload may be used after
// Release.
func (p *Packet) Release() {
	if p == nil || !p.pooled {
		return
	}
	p.pooled = false
	if pp, ok := p.Payload.(PooledPayload); ok {
		pp.ReleasePayload()
	}
	p.Payload = nil
	packetPool.Put(p)
}

// SetCMFlow stamps the packet with the handle of the sending host's CM flow it
// belongs to. A kernel hands ip_output the socket, and with it the flow; here
// the stamp plays that part, so the IP output hook charges the flow by handle
// instead of looking up its key. Traffic left unstamped is charged by key.
func (p *Packet) SetCMFlow(h int64) { p.cmFlow = h + 1 }

// CMFlow returns the CM flow handle stamped by SetCMFlow, and false when the
// packet carries none.
func (p *Packet) CMFlow() (int64, bool) { return p.cmFlow - 1, p.cmFlow != 0 }

// SetIDs stamps the ids of the source and destination hosts, as the sending
// host's address table numbers them (node.Network). The IP layer routes and
// demultiplexes on them instead of on the names; a transport that knows its
// peer's id stamps both, the way it stamps its CM flow, so that output looks
// nothing up. A packet nobody stamped (an id of 0) is resolved by name once,
// by the first host it reaches.
func (p *Packet) SetIDs(src, dst int32) { p.srcID, p.dstID = src, dst }

// IDs returns the host ids stamped by SetIDs, 0 for one not resolved.
func (p *Packet) IDs() (src, dst int32) { return p.srcID, p.dstID }

// Key returns the packet's flow key.
func (p *Packet) Key() FlowKey {
	return FlowKey{Proto: p.Proto, Src: p.Src, Dst: p.Dst}
}

// String formats a short description of the packet.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s %dB", p.Proto, p.Src, p.Dst, p.Size)
}

// Receiver consumes packets delivered by a link. Hosts and protocol demuxers
// implement it.
type Receiver interface {
	Receive(pkt *Packet)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(pkt *Packet)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(pkt *Packet) { f(pkt) }

// Sizes of protocol headers used when computing wire sizes. These follow the
// conventional IPv4 sizes the paper's testbed would have used.
const (
	IPHeaderSize  = 20
	TCPHeaderSize = 20
	UDPHeaderSize = 8
	// TCPTimestampOption is the extra header cost of RFC 1323 timestamps,
	// which the paper's TCP uses for RTT sampling.
	TCPTimestampOption = 12
	// DefaultMTU is the Ethernet MTU of the paper's testbed.
	DefaultMTU = 1500
	// DefaultMSS is the TCP maximum segment size on an Ethernet path with
	// timestamps enabled.
	DefaultMSS = DefaultMTU - IPHeaderSize - TCPHeaderSize - TCPTimestampOption
	// DefaultTTL is the initial hop budget stamped on packets whose sender
	// left TTL zero, matching the conventional IPv4 default.
	DefaultTTL = 64
)
