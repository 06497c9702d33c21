// Package udp provides UDP sockets for the simulation: plain datagram sockets
// and the congestion-controlled UDP socket (CM_BUF) described in §3.3 of the
// paper, whose transmissions are paced by Congestion Manager callbacks
// instead of being sent immediately.
package udp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
)

// Datagram is the payload carried in a UDP packet. Payload bytes are
// synthetic (only the length travels); applications attach their own
// application-layer data in App.
//
// A datagram from NewDatagram is pooled: it belongs to the socket from the
// moment it is passed to SendTo or CCSocket.Send, dies with the packet that
// carries it (netsim.PooledPayload), and the sender must not touch it again.
// A &Datagram{} literal is never pooled and may be sent any number of times.
type Datagram struct {
	// Seq is an application-assigned sequence number.
	Seq int64
	// SentAt is the sender's timestamp, echoed in feedback for RTT
	// measurement.
	SentAt time.Duration
	// Size is the application payload length in bytes.
	Size int
	// App carries application-defined content (for example feedback
	// reports). If it implements netsim.PooledPayload it is released
	// together with a pooled datagram.
	App any

	// pooled marks datagrams drawn from datagramPool; only those go back to
	// it, and clearing it on release makes a second release a no-op.
	pooled bool
}

// datagramPool recycles datagrams like netsim's packet pool recycles packets:
// package-level, so no simulation retains anything and concurrent simulations
// need no lock.
var datagramPool = sync.Pool{New: func() any { return new(Datagram) }}

// released is what a datagram reads as once it has been handed back: values
// no live datagram has, so a callback that kept a reference computes nonsense
// at once instead of silently reading the pool's next user.
var released = Datagram{Seq: -1 << 62, SentAt: -1, Size: -1 << 30}

// NewDatagram returns a zeroed datagram from the pool.
func NewDatagram() *Datagram {
	d := datagramPool.Get().(*Datagram)
	*d = Datagram{pooled: true}
	return d
}

// ReleasePayload implements netsim.PooledPayload. Senders call it directly
// for a pooled datagram they drop before it reaches a socket.
func (d *Datagram) ReleasePayload() {
	if !d.pooled {
		return
	}
	if app, ok := d.App.(netsim.PooledPayload); ok {
		app.ReleasePayload()
	}
	*d = released
	datagramPool.Put(d)
}

// wireSize returns the on-the-wire size of a datagram.
func wireSize(d *Datagram) int {
	return netsim.IPHeaderSize + netsim.UDPHeaderSize + d.Size
}

// ReceiveFunc is invoked for every datagram delivered to a socket. It may read
// the datagram (and its App) during the call and must keep no reference to
// either.
type ReceiveFunc func(from netsim.Addr, d *Datagram)

// Socket is a plain (unreliable, unordered, uncontrolled) UDP socket.
type Socket struct {
	host    *node.Host
	local   netsim.Addr
	onRecv  ReceiveFunc
	control bool
	// peer is the last destination name that resolved, peerID its id: a
	// socket sending to one peer resolves it once. An unresolved name (id
	// 0) is never remembered, so Output resolves it again per datagram.
	peer   string
	peerID int32
	// cmFlow is the CM flow the socket's owner opened for it (SetCMFlow);
	// without one, hasCMFlow is false and the CM charges by flow key.
	cmFlow    cm.FlowID
	hasCMFlow bool

	sentPackets int64
	sentBytes   int64
	rcvdPackets int64
	rcvdBytes   int64
}

// NewSocket binds a UDP socket to the given port on the host (a port of 0
// allocates an ephemeral port).
func NewSocket(h *node.Host, port int) (*Socket, error) {
	if h == nil {
		return nil, fmt.Errorf("udp: nil host")
	}
	if port == 0 {
		port = h.AllocPort()
	}
	s := &Socket{host: h, local: netsim.Addr{Host: h.Name(), Port: port}}
	if err := h.Bind(netsim.ProtoUDP, port, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Local returns the socket's bound address.
func (s *Socket) Local() netsim.Addr { return s.local }

// OnReceive registers the receive callback.
func (s *Socket) OnReceive(fn ReceiveFunc) { s.onRecv = fn }

// MarkControl makes all datagrams sent from this socket transport control
// traffic (application-level acknowledgements) that the CM does not charge.
func (s *Socket) MarkControl() { s.control = true }

// SetCMFlow records the CM flow the socket's owner opened for it: data
// datagrams then carry its handle to the IP output hook, which charges the
// flow without a key lookup. An owner that re-opens its flow after a CM
// restart sets the new handle.
func (s *Socket) SetCMFlow(f cm.FlowID) { s.cmFlow, s.hasCMFlow = f, true }

// SendTo transmits a datagram to dst. It returns false if the packet could
// not be sent (no route) or was dropped at the first hop.
func (s *Socket) SendTo(dst netsim.Addr, d *Datagram) bool {
	if d == nil {
		panic("udp: SendTo(nil)")
	}
	d.SentAt = s.host.Clock().Now()
	pkt := netsim.NewPacket()
	pkt.Proto = netsim.ProtoUDP
	pkt.Src = s.local
	pkt.Dst = dst
	pkt.Size = wireSize(d)
	pkt.Payload = d
	pkt.Control = s.control
	pkt.ChargeBytes = d.Size
	if s.hasCMFlow && !s.control {
		pkt.SetCMFlow(int64(s.cmFlow))
	}
	if dst.Host != s.peer {
		if id := s.host.Resolve(dst.Host); id != 0 {
			s.peer, s.peerID = dst.Host, id
		}
	}
	if dst.Host == s.peer {
		pkt.SetIDs(s.host.ID(), s.peerID)
	}
	s.sentPackets++
	s.sentBytes += int64(d.Size)
	return s.host.Output(pkt)
}

// Handle implements node.Handler.
func (s *Socket) Handle(pkt *netsim.Packet) {
	d, ok := pkt.Payload.(*Datagram)
	if !ok {
		return
	}
	s.rcvdPackets++
	s.rcvdBytes += int64(d.Size)
	if s.onRecv != nil {
		s.onRecv(pkt.Src, d)
	}
}

// Close unbinds the socket.
func (s *Socket) Close() { s.host.Unbind(netsim.ProtoUDP, s.local.Port) }

// SocketStats summarises a socket's traffic counters.
type SocketStats struct {
	SentPackets, RcvdPackets int64
	SentBytes, RcvdBytes     int64
}

// Stats returns the socket counters.
func (s *Socket) Stats() SocketStats {
	return SocketStats{SentPackets: s.sentPackets, RcvdPackets: s.rcvdPackets, SentBytes: s.sentBytes, RcvdBytes: s.rcvdBytes}
}

var _ node.Handler = (*Socket)(nil)

// CCStats are counters for a congestion-controlled UDP socket.
type CCStats struct {
	Enqueued      int64
	QueueDrops    int64
	Sent          int64
	SentBytes     int64
	MaxQueueDepth int
}

// CCSocket is the congestion-controlled UDP socket of §3.3: writes go into a
// bounded kernel packet queue and leave only when the CM schedules the flow
// (the udp_ccappsend path). It provides the "buffered send" API: conventional
// sends, paced by the Congestion Manager, with no content adaptation.
//
// The socket is connected to a single destination, so the IP output hook can
// attribute transmissions to the flow without an explicit cm_notify.
type CCSocket struct {
	sock *Socket
	cmgr *cm.CM
	flow cm.FlowID
	dst  netsim.Addr
	// queue[head:] are the datagrams awaiting transmission, oldest first.
	// Popping advances head instead of reslicing so the backing array is
	// reused and a steady-state Send allocates nothing.
	queue   []*Datagram
	head    int
	limit   int
	pending bool
	onSpace func()
	stats   CCStats
	closed  bool
}

// NewCCSocket creates a congestion-controlled UDP socket on host h bound to
// port (0 = ephemeral), connected to dst, with a kernel queue of queueLimit
// datagrams. Setting the CM_BUF socket option in the paper corresponds to
// constructing this type.
func NewCCSocket(h *node.Host, port int, dst netsim.Addr, cmgr *cm.CM, queueLimit int) (*CCSocket, error) {
	if cmgr == nil {
		return nil, fmt.Errorf("udp: CCSocket requires a Congestion Manager")
	}
	if queueLimit <= 0 {
		queueLimit = 64
	}
	sock, err := NewSocket(h, port)
	if err != nil {
		return nil, err
	}
	s := &CCSocket{sock: sock, cmgr: cmgr, dst: dst, limit: queueLimit}
	s.flow = cmgr.Open(netsim.ProtoUDP, sock.Local(), dst)
	sock.SetCMFlow(s.flow)
	cmgr.RegisterSender(s.flow, s)
	return s, nil
}

// Flow returns the CM flow identifier of the socket.
func (s *CCSocket) Flow() cm.FlowID { return s.flow }

// Local returns the socket's bound address.
func (s *CCSocket) Local() netsim.Addr { return s.sock.Local() }

// Inner returns the underlying plain socket (for receiving feedback).
func (s *CCSocket) Inner() *Socket { return s.sock }

// QueueLen returns the number of queued datagrams awaiting transmission.
func (s *CCSocket) QueueLen() int { return len(s.queue) - s.head }

// Stats returns the socket's counters.
func (s *CCSocket) Stats() CCStats { return s.stats }

// OnSpace registers a callback invoked whenever a datagram leaves the queue,
// so self-clocked applications (the vat architecture of §3.6) can refill the
// kernel buffer on demand.
func (s *CCSocket) OnSpace(fn func()) { s.onSpace = fn }

// Send queues a datagram for congestion-controlled transmission. If the
// kernel queue is full the datagram is dropped (drop-tail, as a kernel socket
// buffer behaves) and false is returned. Either way the socket now owns d.
func (s *CCSocket) Send(d *Datagram) bool {
	if s.closed {
		d.ReleasePayload()
		return false
	}
	if s.QueueLen() >= s.limit {
		s.stats.QueueDrops++
		d.ReleasePayload()
		return false
	}
	if s.head > 0 && len(s.queue) == cap(s.queue) {
		// Out of room at the tail: slide the waiting datagrams to the front
		// rather than grow.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, d)
	s.stats.Enqueued++
	if s.QueueLen() > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = s.QueueLen()
	}
	// "When data enters the packet queue, the kernel calls cm_request() on
	// the flow associated with the socket."
	if !s.pending {
		s.pending = true
		s.cmgr.Request(s.flow)
	}
	return true
}

// CMAppSend is the CM grant callback (cm.Sender; udp_ccappsend in the
// paper): transmit one datagram from the packet queue and request another
// callback if packets remain.
func (s *CCSocket) CMAppSend(_ cm.FlowID) {
	s.pending = false
	if s.closed || s.QueueLen() == 0 {
		s.cmgr.Notify(s.flow, 0)
		return
	}
	d := s.queue[s.head]
	s.queue[s.head] = nil
	if s.head++; s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
	}
	size := d.Size // SendTo hands d to the network, which may release it
	if !s.sock.SendTo(s.dst, d) {
		// Dropped at the first hop; the IP hook never charged it, so release
		// the grant explicitly.
		s.cmgr.Notify(s.flow, 0)
	}
	s.stats.Sent++
	s.stats.SentBytes += int64(size)
	if s.onSpace != nil {
		s.onSpace()
	}
	if s.QueueLen() > 0 && !s.pending {
		s.pending = true
		s.cmgr.Request(s.flow)
	}
}

// CMRestarted is the CM's restart notice (cm.RestartListener): the flow and
// its outstanding request died with the CM's state, so open a fresh flow and,
// if datagrams wait in the queue, request for them again.
func (s *CCSocket) CMRestarted() {
	s.flow = s.cmgr.Open(netsim.ProtoUDP, s.sock.Local(), s.dst)
	s.sock.SetCMFlow(s.flow)
	s.cmgr.RegisterSender(s.flow, s)
	if s.pending = s.QueueLen() > 0; s.pending {
		s.cmgr.Request(s.flow)
	}
}

// Update reports receiver feedback for the socket's flow; applications of the
// buffered API remain responsible for feedback (§3.3's example client loop).
func (s *CCSocket) Update(nsent, nrecd int, mode cm.LossMode, rtt time.Duration) {
	s.cmgr.Update(s.flow, nsent, nrecd, mode, rtt)
}

// Query returns the CM's estimate of the flow's network state.
func (s *CCSocket) Query() (cm.Status, bool) { return s.cmgr.Query(s.flow) }

// Close releases the flow and the underlying socket. Queued datagrams are
// discarded.
func (s *CCSocket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, d := range s.queue[s.head:] {
		d.ReleasePayload()
	}
	s.queue, s.head = nil, 0
	s.cmgr.Close(s.flow)
	s.sock.Close()
}
