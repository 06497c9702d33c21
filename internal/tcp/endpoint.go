package tcp

import (
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

// CongestionControl selects the congestion control provider of an endpoint.
type CongestionControl string

// Congestion control providers.
const (
	// CCNative keeps congestion control inside TCP, mimicking the Linux 2.2
	// baseline of the paper (initial window 2 segments, ACK counting).
	CCNative CongestionControl = "native"
	// CCCM offloads congestion control to the Congestion Manager; TCP
	// becomes an in-kernel CM client using the request/callback API.
	CCCM CongestionControl = "cm"
)

// Config parameterises an endpoint. The zero value gets sensible defaults
// from fillDefaults.
type Config struct {
	// MSS is the maximum segment size (payload bytes).
	MSS int
	// RecvWindow is the receive window advertised to the peer.
	RecvWindow int
	// DelayedAck enables RFC 1122 delayed acknowledgements (ack every second
	// full segment or after DelayedAckTimeout).
	DelayedAck bool
	// DelayedAckTimeout is the delayed-ACK timer (default 200 ms).
	DelayedAckTimeout time.Duration
	// CongestionControl selects CCNative or CCCM.
	CongestionControl CongestionControl
	// CM is the host's Congestion Manager; required when CongestionControl
	// is CCCM.
	CM *cm.CM
	// InitialWindowSegments is the initial congestion window of the native
	// controller in segments (Linux 2.2 used 2).
	InitialWindowSegments int
	// MinRTO, MaxRTO and InitialRTO bound the retransmission timer.
	MinRTO     time.Duration
	MaxRTO     time.Duration
	InitialRTO time.Duration
}

func (c *Config) fillDefaults() {
	if c.MSS <= 0 {
		c.MSS = netsim.DefaultMSS
	}
	if c.RecvWindow <= 0 {
		c.RecvWindow = 256 * 1024
	}
	if c.DelayedAckTimeout <= 0 {
		c.DelayedAckTimeout = 200 * time.Millisecond
	}
	if c.CongestionControl == "" {
		c.CongestionControl = CCNative
	}
	if c.InitialWindowSegments <= 0 {
		c.InitialWindowSegments = 2
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 60 * time.Second
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = time.Second
	}
}

// Stats are cumulative counters for one endpoint.
type Stats struct {
	BytesQueued     int64
	BytesSent       int64 // payload bytes handed to IP (including retransmissions)
	BytesAcked      int64
	BytesDelivered  int64 // in-order payload bytes delivered to the application
	SegmentsSent    int64
	SegmentsRcvd    int64
	Retransmissions int64
	DupAcksRcvd     int64
	Timeouts        int64
	AcksSent        int64
	EstablishedAt   time.Duration
	ClosedAt        time.Duration
	SRTT            time.Duration
}

// interval is a half-open byte range [start, end) of out-of-order data held
// by the receiver.
type interval struct{ start, end int64 }

// Endpoint is one end of a TCP connection, and one object: its two timers and
// its congestion controller live inside it, and its application callbacks are
// plain functions that get the endpoint and the owner word back, so opening a
// connection allocates the Endpoint and nothing else. It is a per-connection
// object — never pooled, never part of a slab — and is collected once the
// connection has reached TIME_WAIT and the application has let go of it.
type Endpoint struct {
	host  *node.Host
	sched *simtime.Scheduler
	cfg   Config

	local, remote netsim.Addr
	state         State

	// Application callbacks, and the word each of them is handed (SetOwner).
	owner         any
	onEstablished func(e *Endpoint, owner any)
	onReceive     func(e *Endpoint, owner any, n int)
	onClosed      func(e *Endpoint, owner any)
	onTimeWait    func(e *Endpoint, owner any)

	// Send sequence state.
	iss       int64
	sndUna    int64
	sndNxt    int64
	sndBufEnd int64 // sequence number just past the last byte the app queued
	finQueued bool
	finSent   bool
	peerWnd   int

	// Loss recovery.
	dupAcks    int
	inRecovery bool
	recover    int64
	rtxPending bool

	// Receive sequence state.
	rcvNxt      int64
	ooo         []interval
	finRcvd     bool
	finSeq      int64
	lastTSVal   time.Duration
	unackedSegs int
	dataSegs    int64 // data segments received (drives quick-ACK mode)

	// Timers.
	rtoTimer   simtime.EventTimer
	ackTimer   simtime.EventTimer
	rtoBackoff int

	// RTT estimation (endpoint-local; the CM provider also feeds the shared
	// macroflow estimator).
	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool

	// cc is the active congestion controller: a pointer to native or to viaCM,
	// whichever the configuration selected.
	cc     ccProvider
	native nativeCC
	viaCM  cmCC
	stats  Stats

	closedFired bool

	// tw is the record that took over the host binding at TIME_WAIT (nil
	// before); the endpoint keeps it only to fold its counters into Stats.
	tw *timeWait
}

func newEndpoint(h *node.Host, local, remote netsim.Addr, cfg Config) *Endpoint {
	cfg.fillDefaults()
	if cfg.CongestionControl == CCCM && cfg.CM == nil {
		panic("tcp: CCCM requires a Congestion Manager instance")
	}
	e := &Endpoint{
		host:    h,
		sched:   h.Clock(),
		cfg:     cfg,
		local:   local,
		remote:  remote,
		state:   StateClosed,
		peerWnd: cfg.RecvWindow,
	}
	e.rtoTimer.Init(e.sched, simtime.KindWorkloadApp, fireRTO, e)
	e.ackTimer.Init(e.sched, simtime.KindWorkloadApp, fireDelayedAck, e)
	switch cfg.CongestionControl {
	case CCCM:
		e.viaCM = cmCC{e: e, cm: cfg.CM}
		e.cc = &e.viaCM
	default:
		e.native = nativeCC{e: e}
		e.cc = &e.native
	}
	return e
}

// The timer callbacks are package-level functions with the endpoint as their
// argument, so an endpoint owns no closures.
func fireRTO(e any)        { e.(*Endpoint).onRTO() }
func fireDelayedAck(e any) { e.(*Endpoint).onDelayedAckTimer() }

// Dial opens an active connection from host h to remote, allocating an
// ephemeral local port. The returned endpoint is in SYN-SENT; OnEstablished
// fires when the handshake completes.
func Dial(h *node.Host, remote netsim.Addr, cfg Config) (*Endpoint, error) {
	local := netsim.Addr{Host: h.Name(), Port: h.AllocPort()}
	e := newEndpoint(h, local, remote, cfg)
	if err := h.BindConn(netsim.ProtoTCP, local.Port, remote, e); err != nil {
		return nil, err
	}
	e.connect()
	return e, nil
}

// Local and Remote return the endpoint addresses.
func (e *Endpoint) Local() netsim.Addr  { return e.local }
func (e *Endpoint) Remote() netsim.Addr { return e.remote }

// State returns the connection state.
func (e *Endpoint) State() State { return e.state }

// Stats returns a copy of the endpoint counters, including what the
// connection's time-wait record has counted since it took over.
func (e *Endpoint) Stats() Stats {
	s := e.stats
	s.SRTT = e.srtt
	if e.tw != nil {
		s.SegmentsRcvd += e.tw.segmentsRcvd
		s.AcksSent += e.tw.acksSent
	}
	return s
}

// CongestionWindow returns the current congestion window in bytes as seen by
// the active provider (for experiments and tests).
func (e *Endpoint) CongestionWindow() int { return e.cc.window() }

// SetOwner sets the word every application callback receives beside the
// endpoint: whatever the application needs to find its own state for this
// connection. With it the callbacks can be package-level functions shared by
// all connections, and an application with thousands of short connections
// allocates no closure per connection. The endpoint only stores the word; it
// refers to the owner, never the other way round through the simulator, so
// the owner decides how long it keeps the endpoint (see OnTimeWait).
func (e *Endpoint) SetOwner(owner any) { e.owner = owner }

// OnEstablished registers a callback invoked when the handshake completes.
func (e *Endpoint) OnEstablished(fn func(e *Endpoint, owner any)) { e.onEstablished = fn }

// OnReceive registers a callback invoked with the number of new in-order
// payload bytes delivered to the application.
func (e *Endpoint) OnReceive(fn func(e *Endpoint, owner any, n int)) { e.onReceive = fn }

// OnClosed registers a callback invoked when the peer's FIN has been received
// and all data delivered.
func (e *Endpoint) OnClosed(fn func(e *Endpoint, owner any)) { e.onClosed = fn }

// OnTimeWait registers a callback invoked once when the connection has fully
// closed: both FINs are acknowledged and a time-wait record has taken over
// the host binding. Every counter except SegmentsRcvd and AcksSent is final
// then, and the simulator itself no longer references the endpoint — a caller
// that copies what it needs and drops its handle lets the endpoint be
// collected.
func (e *Endpoint) OnTimeWait(fn func(e *Endpoint, owner any)) { e.onTimeWait = fn }

// connect starts the active-open handshake.
func (e *Endpoint) connect() {
	e.iss = 1
	e.sndUna = e.iss
	e.sndNxt = e.iss
	e.sndBufEnd = e.iss + 1 // the SYN occupies one sequence number
	e.rcvNxt = 0
	e.state = StateSynSent
	e.sendSYN(false)
}

// Send queues n bytes of application data for transmission.
func (e *Endpoint) Send(n int) {
	if n <= 0 {
		return
	}
	e.stats.BytesQueued += int64(n)
	e.sndBufEnd += int64(n)
	if e.state == StateEstablished || e.state == StateCloseWait {
		e.cc.trySend()
	}
}

// Close queues a FIN after any pending data (half-close of the send side).
func (e *Endpoint) Close() {
	if e.finQueued {
		return
	}
	e.finQueued = true
	if e.state == StateEstablished || e.state == StateCloseWait || e.state == StateSynSent || e.state == StateSynReceived {
		e.cc.trySend()
	}
}

// pendingData reports whether unsent application data or a queued FIN or a
// retransmission is waiting for transmission opportunities.
func (e *Endpoint) pendingData() bool {
	if e.rtxPending {
		return true
	}
	if e.sndNxt < e.sndBufEnd {
		return true
	}
	if e.finQueued && !e.finSent {
		return true
	}
	return false
}

// inFlight returns the number of unacknowledged sequence bytes.
func (e *Endpoint) inFlight() int { return int(e.sndNxt - e.sndUna) }

// mss returns the maximum segment size.
func (e *Endpoint) mss() int { return e.cfg.MSS }

// ---------- segment construction and transmission ----------

// basePacket builds the packet carrying one of the endpoint's segments. A
// data segment of a connection with an open CM flow carries the flow's handle
// to the IP output hook, which charges the flow without a lookup (a kernel
// hands ip_output the socket). The handle is read as the packet is built, so
// after a CM restart it is the one CMRestarted re-opened.
func (e *Endpoint) basePacket(seg *Segment, control bool) *netsim.Packet {
	pkt := newPacket(e.local, e.remote, seg, control)
	if !control && e.viaCM.opened {
		pkt.SetCMFlow(int64(e.viaCM.flow))
	}
	return pkt
}

func newPacket(local, remote netsim.Addr, seg *Segment, control bool) *netsim.Packet {
	pkt := netsim.NewPacket()
	pkt.Proto = netsim.ProtoTCP
	pkt.Src = local
	pkt.Dst = remote
	pkt.Size = wireSize(seg)
	pkt.Payload = seg
	pkt.Control = control
	// The CM is charged in payload bytes so that cm_notify matches the
	// payload-byte feedback TCP reports with cm_update.
	pkt.ChargeBytes = seg.Len
	return pkt
}

func (e *Endpoint) sendSYN(synAck bool) {
	seg := newSegment(Segment{
		Seq:   e.iss,
		SYN:   true,
		Wnd:   e.cfg.RecvWindow,
		TSVal: e.sched.Now(),
	})
	if synAck {
		seg.ACK = true
		seg.Ack = e.rcvNxt
		seg.TSEcr = e.lastTSVal
	}
	e.sndNxt = e.iss + 1
	e.stats.SegmentsSent++
	// Connection-setup segments are control traffic from the CM's point of
	// view: the congestion window governs data, not the handshake.
	e.host.Output(e.basePacket(seg, true))
	e.armRTO()
}

// sendAck transmits a pure acknowledgement.
func (e *Endpoint) sendAck() {
	e.ackTimer.Stop()
	e.unackedSegs = 0
	e.stats.AcksSent++
	outputAck(e.host, e.local, e.remote, e.sndNxt, e.rcvNxt, e.availableRecvWindow(), e.lastTSVal)
}

// outputAck builds and sends a pure acknowledgement; a live endpoint and a
// time-wait record answer through the same code.
func outputAck(h *node.Host, local, remote netsim.Addr, seq, ack int64, wnd int, tsEcr time.Duration) {
	h.Output(newPacket(local, remote, newSegment(Segment{
		Seq:   seq,
		ACK:   true,
		Ack:   ack,
		Wnd:   wnd,
		TSVal: h.Clock().Now(),
		TSEcr: tsEcr,
	}), true))
}

func (e *Endpoint) availableRecvWindow() int {
	var buffered int64
	for _, iv := range e.ooo {
		buffered += iv.end - iv.start
	}
	w := e.cfg.RecvWindow - int(buffered)
	if w < 0 {
		w = 0
	}
	return w
}

// sendOneSegment transmits the next segment: a retransmission if one is
// pending, otherwise new data (respecting the peer's window), otherwise a FIN
// if queued. It returns the number of payload bytes transmitted and whether
// anything was sent. Congestion control providers call it; it does not
// consult the congestion window itself.
func (e *Endpoint) sendOneSegment() (int, bool) {
	if e.state != StateEstablished && e.state != StateCloseWait &&
		e.state != StateFinWait && e.state != StateClosing {
		return 0, false
	}
	now := e.sched.Now()

	if e.rtxPending {
		e.rtxPending = false
		length := e.mss()
		if rem := int(e.sndBufEnd - e.sndUna); rem < length {
			length = rem
		}
		fin := false
		if length < 0 {
			length = 0
		}
		if e.finSent && e.sndUna+int64(length) >= e.sndBufEnd {
			// The FIN itself needs retransmitting once data is exhausted.
			fin = true
			if length > int(e.sndBufEnd-e.sndUna-1) {
				length = int(e.sndBufEnd - e.sndUna - 1)
				if length < 0 {
					length = 0
				}
			}
		}
		seg := newSegment(Segment{
			Seq: e.sndUna, Len: length, ACK: true, Ack: e.rcvNxt,
			Wnd: e.availableRecvWindow(), TSVal: now, TSEcr: e.lastTSVal,
			FIN: fin, Retransmit: true,
		})
		e.stats.SegmentsSent++
		e.stats.Retransmissions++
		e.stats.BytesSent += int64(length)
		e.host.Output(e.basePacket(seg, false))
		e.armRTO()
		return length, true
	}

	// New data. sndBufEnd covers only application data until the FIN has
	// actually been sent (the FIN's sequence slot is appended then).
	available := int(e.sndBufEnd - e.sndNxt)
	if e.finSent {
		available = 0
	}
	wndRoom := e.peerWnd - e.inFlight()
	if available > 0 && wndRoom > 0 {
		length := e.mss()
		if length > available {
			length = available
		}
		if length > wndRoom {
			length = wndRoom
		}
		if length <= 0 {
			return 0, false
		}
		seg := newSegment(Segment{
			Seq: e.sndNxt, Len: length, ACK: true, Ack: e.rcvNxt,
			Wnd: e.availableRecvWindow(), TSVal: now, TSEcr: e.lastTSVal,
		})
		e.sndNxt += int64(length)
		e.stats.SegmentsSent++
		e.stats.BytesSent += int64(length)
		e.host.Output(e.basePacket(seg, false))
		e.armRTO()
		return length, true
	}

	// FIN, once all data has been transmitted at least once.
	if e.finQueued && !e.finSent && e.sndNxt == e.sndBufEndData() && wndRoom >= 0 {
		seg := newSegment(Segment{
			Seq: e.sndNxt, FIN: true, ACK: true, Ack: e.rcvNxt,
			Wnd: e.availableRecvWindow(), TSVal: now, TSEcr: e.lastTSVal,
		})
		e.finSent = true
		e.sndBufEnd = e.sndNxt + 1 // FIN occupies one sequence number
		e.sndNxt++
		e.stats.SegmentsSent++
		e.host.Output(e.basePacket(seg, true))
		switch e.state {
		case StateEstablished:
			e.state = StateFinWait
		case StateCloseWait:
			e.state = StateClosing
		}
		e.armRTO()
		return 0, true
	}
	return 0, false
}

// sndBufEndData returns the sequence number just past the last data byte
// (excluding any FIN sequence slot already appended).
func (e *Endpoint) sndBufEndData() int64 {
	if e.finSent {
		return e.sndBufEnd - 1
	}
	return e.sndBufEnd
}

// ---------- timers ----------

func (e *Endpoint) currentRTO() time.Duration {
	var rto time.Duration
	if e.hasRTT {
		rto = e.srtt + 4*e.rttvar
	} else if srtt, rttvar, ok := e.cc.sharedRTT(); ok && srtt > 0 {
		rto = srtt + 4*rttvar
	} else {
		rto = e.cfg.InitialRTO
	}
	for i := 0; i < e.rtoBackoff; i++ {
		rto *= 2
		if rto > e.cfg.MaxRTO {
			break
		}
	}
	if rto < e.cfg.MinRTO {
		rto = e.cfg.MinRTO
	}
	if rto > e.cfg.MaxRTO {
		rto = e.cfg.MaxRTO
	}
	return rto
}

func (e *Endpoint) armRTO() {
	if e.sndNxt > e.sndUna || e.state == StateSynSent || e.state == StateSynReceived {
		e.rtoTimer.Reset(e.currentRTO())
	} else {
		e.rtoTimer.Stop()
	}
}

func (e *Endpoint) onRTO() {
	if e.state == StateClosed || e.state == StateTimeWait {
		return
	}
	if e.state == StateSynSent || e.state == StateSynReceived {
		// Retransmit the handshake segment.
		e.rtoBackoff++
		e.stats.Timeouts++
		e.iss = e.sndUna
		e.sendSYN(e.state == StateSynReceived)
		return
	}
	if e.sndUna >= e.sndNxt {
		return // nothing outstanding
	}
	e.stats.Timeouts++
	e.rtoBackoff++
	e.dupAcks = 0
	// Stay in (or enter) recovery up to the current send frontier so that
	// partial ACKs after the timeout keep retransmitting the remaining holes.
	e.inRecovery = true
	e.recover = e.sndNxt
	e.rtxPending = true
	e.cc.onTimeout()
	e.cc.trySend()
	e.armRTO()
}

func (e *Endpoint) onDelayedAckTimer() {
	if e.unackedSegs > 0 {
		e.sendAck()
	}
}

// ---------- RTT ----------

func (e *Endpoint) addRTTSample(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.hasRTT {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasRTT = true
		return
	}
	diff := e.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	e.rttvar += (diff - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// ---------- receive path ----------

// Handle implements node.Handler: it processes one incoming segment.
func (e *Endpoint) Handle(pkt *netsim.Packet) {
	if e.tw != nil {
		// The host delivers to the record from TIME_WAIT on; only a caller
		// still holding the endpoint gets here.
		e.tw.Handle(pkt)
		return
	}
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	e.stats.SegmentsRcvd++
	switch e.state {
	case StateSynSent:
		e.handleSynSent(seg)
	case StateSynReceived:
		e.handleSynReceived(seg)
	case StateEstablished, StateFinWait, StateCloseWait, StateClosing:
		e.handleEstablished(seg, pkt.CE)
	}
	if e.state == StateTimeWait {
		e.handOver()
	}
}

func (e *Endpoint) handleSynSent(seg *Segment) {
	if !seg.SYN {
		return
	}
	e.rcvNxt = seg.Seq + 1
	e.lastTSVal = seg.TSVal
	e.peerWnd = seg.Wnd
	if seg.ACK && seg.Ack == e.iss+1 {
		e.sndUna = seg.Ack
		e.becomeEstablished()
		e.sendAck()
	} else {
		// Simultaneous open is not modelled; treat as SYN-ACK anyway.
		e.becomeEstablished()
		e.sendAck()
	}
}

func (e *Endpoint) handleSynReceived(seg *Segment) {
	if seg.SYN && !seg.ACK {
		// Duplicate SYN: retransmit our SYN-ACK.
		e.sendSYN(true)
		return
	}
	if seg.ACK && seg.Ack >= e.iss+1 {
		e.sndUna = seg.Ack
		e.peerWnd = seg.Wnd
		e.becomeEstablished()
		// The ACK completing the handshake may carry data.
		if seg.Len > 0 || seg.FIN {
			e.handleEstablished(seg, false)
		}
	}
}

func (e *Endpoint) becomeEstablished() {
	if e.state == StateEstablished {
		return
	}
	e.state = StateEstablished
	e.rtoBackoff = 0
	e.stats.EstablishedAt = e.sched.Now()
	e.rtoTimer.Stop()
	e.cc.onEstablished()
	if e.onEstablished != nil {
		e.onEstablished(e, e.owner)
	}
	if e.pendingData() {
		e.cc.trySend()
	}
}

func (e *Endpoint) handleEstablished(seg *Segment, ce bool) {
	if seg.SYN {
		// Duplicate handshake segment from the peer; re-acknowledge.
		e.sendAck()
		return
	}
	if seg.ACK {
		e.processAck(seg, ce)
	}
	if seg.Len > 0 || seg.FIN {
		e.processData(seg)
	}
}

func (e *Endpoint) processAck(seg *Segment, ce bool) {
	e.peerWnd = seg.Wnd
	switch {
	case seg.Ack > e.sndUna:
		acked := int(seg.Ack - e.sndUna)
		e.sndUna = seg.Ack
		e.stats.BytesAcked += int64(acked)
		e.dupAcks = 0
		e.rtoBackoff = 0

		var rtt time.Duration
		if seg.TSEcr > 0 {
			rtt = e.sched.Now() - seg.TSEcr
			e.addRTTSample(rtt)
		}

		if e.inRecovery {
			if seg.Ack >= e.recover {
				e.inRecovery = false
				e.cc.onRecoveryExit()
			} else {
				// NewReno partial ACK: the next hole is lost too; retransmit
				// it without waiting for another three duplicate ACKs.
				e.rtxPending = true
			}
		}
		e.cc.onAck(acked, rtt, ce)

		if e.sndUna >= e.sndNxt {
			e.rtoTimer.Stop()
			e.maybeFinishClose()
		} else {
			e.armRTO()
		}
		e.cc.trySend()

	case seg.Ack == e.sndUna && seg.Len == 0 && !seg.FIN && e.sndNxt > e.sndUna:
		// Duplicate ACK.
		e.dupAcks++
		e.stats.DupAcksRcvd++
		if e.dupAcks == 3 && !e.inRecovery {
			e.inRecovery = true
			e.recover = e.sndNxt
			e.rtxPending = true
			e.cc.onFastRetransmit()
		} else if e.dupAcks > 3 || (e.dupAcks >= 3 && e.inRecovery) {
			e.cc.onDupAckInRecovery()
		}
		e.cc.trySend()
	}
}

func (e *Endpoint) maybeFinishClose() {
	// All of our data (and FIN if sent) has been acknowledged.
	if e.finSent && e.sndUna == e.sndBufEnd {
		switch e.state {
		case StateFinWait:
			if e.finRcvd {
				e.enterTimeWait()
			}
		case StateClosing:
			e.enterTimeWait()
		}
	}
}

func (e *Endpoint) enterTimeWait() {
	if e.state == StateTimeWait {
		return
	}
	e.state = StateTimeWait
	e.stats.ClosedAt = e.sched.Now()
	e.rtoTimer.Stop()
	e.ackTimer.Stop()
	e.cc.onClose()
}

// handOver ends the endpoint's part in a connection that reached TIME_WAIT:
// from here on the connection only counts late segments and re-ACKs late data
// or a late FIN, and a timeWait record does that with a fifth of the memory.
// Handle calls it once the segment that closed the connection is fully
// processed, so the record freezes exactly the state a TIME_WAIT endpoint
// would have answered from.
func (e *Endpoint) handOver() {
	e.tw = &timeWait{
		host:      e.host,
		local:     e.local,
		remote:    e.remote,
		sndNxt:    e.sndNxt,
		rcvNxt:    e.rcvNxt,
		wnd:       e.availableRecvWindow(),
		lastTSVal: e.lastTSVal,
	}
	e.host.RebindConn(netsim.ProtoTCP, e.local.Port, e.remote, e.tw)
	if e.onTimeWait != nil {
		e.onTimeWait(e, e.owner)
	}
}

func (e *Endpoint) processData(seg *Segment) {
	e.lastTSVal = seg.TSVal
	start, end := seg.Seq, seg.Seq+int64(seg.Len)
	advanced := false

	if seg.Len > 0 {
		switch {
		case end <= e.rcvNxt:
			// Entirely old data: re-acknowledge immediately.
			e.sendAck()
			return
		case start <= e.rcvNxt:
			// Advances the left edge.
			newBytes := int(end - e.rcvNxt)
			e.rcvNxt = end
			e.deliver(newBytes)
			advanced = true
			e.mergeOOO()
		default:
			// Out of order: buffer the interval and send an immediate
			// duplicate ACK so the sender's fast retransmit can trigger.
			e.addOOO(interval{start, end})
			e.sendAck()
			return
		}
	}

	if seg.FIN {
		finSeq := end
		if seg.Len == 0 {
			finSeq = seg.Seq
		}
		if !e.finRcvd {
			e.finRcvd = true
			e.finSeq = finSeq
		}
	}
	if e.finRcvd && e.rcvNxt == e.finSeq {
		e.rcvNxt = e.finSeq + 1
		switch e.state {
		case StateEstablished:
			e.state = StateCloseWait
		case StateFinWait:
			if e.finSent && e.sndUna == e.sndBufEnd {
				e.enterTimeWait()
			} else {
				e.state = StateClosing
			}
		}
		e.fireClosed()
		e.sendAck()
		return
	}

	if advanced {
		e.acknowledgeData()
	} else if seg.FIN {
		e.sendAck()
	}
}

func (e *Endpoint) fireClosed() {
	if e.closedFired {
		return
	}
	e.closedFired = true
	if e.stats.ClosedAt == 0 {
		e.stats.ClosedAt = e.sched.Now()
	}
	if e.onClosed != nil {
		e.onClosed(e, e.owner)
	}
}

func (e *Endpoint) deliver(n int) {
	if n <= 0 {
		return
	}
	e.stats.BytesDelivered += int64(n)
	if e.onReceive != nil {
		e.onReceive(e, e.owner, n)
	}
}

func (e *Endpoint) acknowledgeData() {
	e.unackedSegs++
	e.dataSegs++
	// Quick-ACK mode: like Linux, the first few data segments of a
	// connection are acknowledged immediately so a sender starting with a
	// small initial window is not stalled by the delayed-ACK timer.
	quickAck := e.dataSegs <= 4
	if !e.cfg.DelayedAck || quickAck || e.unackedSegs >= 2 || len(e.ooo) > 0 {
		e.sendAck()
		return
	}
	if !e.ackTimer.Pending() {
		e.ackTimer.Reset(e.cfg.DelayedAckTimeout)
	}
}

func (e *Endpoint) addOOO(iv interval) {
	for _, existing := range e.ooo {
		if iv.start >= existing.start && iv.end <= existing.end {
			return // fully contained
		}
	}
	e.ooo = append(e.ooo, iv)
}

func (e *Endpoint) mergeOOO() {
	changed := true
	for changed {
		changed = false
		for i, iv := range e.ooo {
			if iv.start <= e.rcvNxt {
				if iv.end > e.rcvNxt {
					n := int(iv.end - e.rcvNxt)
					e.rcvNxt = iv.end
					e.deliver(n)
				}
				e.ooo = append(e.ooo[:i], e.ooo[i+1:]...)
				changed = true
				break
			}
		}
	}
}

// Listener accepts incoming connections on a port, creating one Endpoint per
// connection (the paper's accept path: cm_open is called when the connection
// is created).
type Listener struct {
	host   *node.Host
	port   int
	cfg    Config
	accept func(e *Endpoint, owner any)
	owner  any
}

// Listen binds a listener to (host, port). The accept callback runs when a
// SYN creates a new connection, with the new endpoint and the listener's owner
// word (see Endpoint.SetOwner; accept typically passes it on); the endpoint is
// in SYN-RECEIVED and becomes established once the handshake completes.
func Listen(h *node.Host, port int, cfg Config, accept func(e *Endpoint, owner any), owner any) (*Listener, error) {
	l := new(Listener)
	if err := l.Listen(h, port, cfg, accept, owner); err != nil {
		return nil, err
	}
	return l, nil
}

// Listen is the package-level Listen on a Listener the caller provides, such
// as an element of a slab that lives as long as the simulation.
func (l *Listener) Listen(h *node.Host, port int, cfg Config, accept func(e *Endpoint, owner any), owner any) error {
	*l = Listener{host: h, port: port, cfg: cfg, accept: accept, owner: owner}
	return h.Bind(netsim.ProtoTCP, port, l)
}

// Handle implements node.Handler for the listening socket. A connection's own
// binding (the endpoint, later its time-wait record) takes precedence over
// this wildcard one, so only SYNs of new connections arrive here.
func (l *Listener) Handle(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok || !seg.SYN || seg.ACK {
		return
	}
	local := netsim.Addr{Host: l.host.Name(), Port: l.port}
	e := newEndpoint(l.host, local, pkt.Src, l.cfg)
	if err := l.host.BindConn(netsim.ProtoTCP, l.port, pkt.Src, e); err != nil {
		return
	}
	// Passive open: record the peer's SYN and answer with SYN-ACK.
	e.iss = 1
	e.sndUna = e.iss
	e.sndNxt = e.iss
	e.sndBufEnd = e.iss + 1
	e.rcvNxt = seg.Seq + 1
	e.lastTSVal = seg.TSVal
	e.peerWnd = seg.Wnd
	e.state = StateSynReceived
	if l.accept != nil {
		l.accept(e, l.owner)
	}
	e.sendSYN(true)
}

// Close removes the listener binding; existing connections are unaffected, and
// a connection being accepted (Close called from the accept callback, by a
// listener that serves a single connection) completes. The host no longer
// refers to the listener afterwards.
func (l *Listener) Close() { l.host.Unbind(netsim.ProtoTCP, l.port) }

var (
	_ node.Handler = (*Endpoint)(nil)
	_ node.Handler = (*Listener)(nil)
)
