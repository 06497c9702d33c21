package tcp

import (
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
)

// ccProvider is the congestion-control seam between the TCP machinery and
// either the native (in-TCP) controller or the Congestion Manager client.
type ccProvider interface {
	name() string
	// window returns the effective congestion window in bytes (for
	// statistics and tests; the CM provider reports the macroflow window).
	window() int
	// trySend is invoked whenever transmission may have become possible:
	// new data queued, an ACK arrived, recovery state changed, a timer
	// fired. The provider decides when segments actually go out.
	trySend()
	// onEstablished runs when the handshake completes.
	onEstablished()
	// onClose runs when the connection is fully closed.
	onClose()
	// onAck reports acked bytes and an RTT sample (0 if none).
	onAck(acked int, rtt time.Duration)
	// onFastRetransmit runs when the third duplicate ACK arrives.
	onFastRetransmit()
	// onDupAckInRecovery runs for duplicate ACKs beyond the third.
	onDupAckInRecovery()
	// onRecoveryExit runs when a cumulative ACK covers the recovery point.
	onRecoveryExit()
	// onTimeout runs when the retransmission timer expires.
	onTimeout()
	// sharedRTT returns an RTT estimate shared across connections (only the
	// CM provider has one); ok is false otherwise.
	sharedRTT() (srtt, rttvar time.Duration, ok bool)
}

// ---------------------------------------------------------------------------
// Native congestion control: a Linux-2.2-like Reno controller. The two
// deliberate differences from the CM that the paper calls out are preserved:
// the initial window is 2 segments and window growth counts ACKs (each ACK is
// assumed to cover a full MSS) rather than bytes.
// ---------------------------------------------------------------------------

type nativeCC struct {
	e        *Endpoint
	cwnd     int
	ssthresh int
}

func (c *nativeCC) name() string { return "native" }
func (c *nativeCC) window() int  { return c.cwnd }

func (c *nativeCC) onEstablished() {
	c.cwnd = c.e.cfg.InitialWindowSegments * c.e.mss()
	c.ssthresh = 1 << 30
}

func (c *nativeCC) onClose() {}

func (c *nativeCC) sharedRTT() (time.Duration, time.Duration, bool) { return 0, 0, false }

func (c *nativeCC) trySend() {
	if c.cwnd == 0 {
		// Not yet established.
		return
	}
	for {
		// Retransmissions are always allowed; new data must fit in cwnd.
		if !c.e.rtxPending && c.e.inFlight() >= c.cwnd {
			return
		}
		if _, ok := c.e.sendOneSegment(); !ok {
			return
		}
	}
}

func (c *nativeCC) onAck(acked int, rtt time.Duration) {
	mss := c.e.mss()
	if c.cwnd < c.ssthresh {
		// Slow start, ACK counting: each ACK opens the window by one MSS.
		c.cwnd += mss
	} else {
		grow := mss * mss / c.cwnd
		if grow < 1 {
			grow = 1
		}
		c.cwnd += grow
	}
}

func (c *nativeCC) onFastRetransmit() {
	mss := c.e.mss()
	c.ssthresh = max(c.e.inFlight()/2, 2*mss)
	// Fast recovery window inflation for the three duplicate ACKs already
	// received.
	c.cwnd = c.ssthresh + 3*mss
}

func (c *nativeCC) onDupAckInRecovery() {
	c.cwnd += c.e.mss()
}

func (c *nativeCC) onRecoveryExit() {
	c.cwnd = c.ssthresh
}

func (c *nativeCC) onTimeout() {
	mss := c.e.mss()
	half := c.e.inFlight() / 2
	if half < 2*mss {
		half = 2 * mss
	}
	c.ssthresh = half
	c.cwnd = mss
}

// ---------------------------------------------------------------------------
// CM congestion control: TCP as an in-kernel Congestion Manager client
// (paper §3.2). TCP retains connection management, loss recovery and protocol
// state; all congestion control decisions are the CM's. Data leaves only from
// cmapp_send callbacks; ACK arrivals, duplicate ACKs and timeouts are
// reported with cm_update; the IP output hook charges transmissions.
// ---------------------------------------------------------------------------

type cmCC struct {
	e  *Endpoint
	cm *cm.CM

	flow            cm.FlowID
	opened          bool
	pendingRequests int
}

func (c *cmCC) name() string { return "cm" }

func (c *cmCC) window() int {
	if !c.opened {
		return 0
	}
	st, ok := c.cm.Query(c.flow)
	if !ok {
		return 0
	}
	return st.CWND
}

func (c *cmCC) onEstablished() {
	// cm_open is called when the connection is created (accept or connect).
	c.flow = c.cm.Open(netsim.ProtoTCP, c.e.local, c.e.remote)
	c.cm.RegisterSender(c.flow, c)
	c.opened = true
}

func (c *cmCC) onClose() {
	if c.opened {
		c.opened = false
		c.cm.Close(c.flow)
	}
}

// CMRestarted is the CM's restart notice (cm.RestartListener), which the
// paper's in-kernel client never needs: there TCP does not outlive its CM.
// The old handle is dead and its grants and requests with it, so the flow
// is re-opened as at establishment, with congestion state from the initial
// window, and whatever data waits is requested again at once.
func (c *cmCC) CMRestarted() {
	c.onEstablished()
	c.pendingRequests = 0
	c.trySend()
}

func (c *cmCC) sharedRTT() (time.Duration, time.Duration, bool) {
	if !c.opened {
		return 0, 0, false
	}
	st, ok := c.cm.Query(c.flow)
	if !ok {
		return 0, 0, false
	}
	return st.SRTT, st.RTTVar, st.SRTT > 0
}

// trySend: whenever TCP has something to transmit it asks the CM for
// permission; the actual transmission happens in the cmapp_send callback.
func (c *cmCC) trySend() {
	if !c.opened {
		return
	}
	if c.e.pendingData() && c.pendingRequests == 0 {
		c.pendingRequests++
		c.cm.Request(c.flow)
	}
}

// CMAppSend is the grant callback (cm.Sender): permission to send up to one
// MTU.
func (c *cmCC) CMAppSend(_ cm.FlowID) {
	c.pendingRequests--
	n, sent := c.e.sendOneSegment()
	if !sent || n == 0 {
		// Nothing (or only an un-charged control segment) was transmitted;
		// return the grant so other flows on the macroflow may proceed.
		c.cm.Notify(c.flow, 0)
	}
	// Ask again only if this grant made progress; if nothing could be sent
	// (for example the peer's receive window is full) a new request would be
	// granted and declined in a tight loop. The next ACK or application
	// write calls trySend and resumes requesting.
	if sent && n > 0 && c.e.pendingData() && c.pendingRequests == 0 {
		c.pendingRequests++
		c.cm.Request(c.flow)
	}
}

func (c *cmCC) onAck(acked int, rtt time.Duration) {
	if !c.opened {
		return
	}
	c.cm.Update(c.flow, acked, acked, cm.NoLoss, rtt)
}

func (c *cmCC) onFastRetransmit() {
	if !c.opened {
		return
	}
	// Three duplicate ACKs: a single, congestion-caused packet loss.
	c.cm.Update(c.flow, c.e.mss(), 0, cm.TransientLoss, 0)
}

func (c *cmCC) onDupAckInRecovery() {
	if !c.opened {
		return
	}
	// A duplicate ACK beyond the third means another segment reached the
	// receiver (paper §3.2: "It therefore calls cm_update()").
	c.cm.Update(c.flow, c.e.mss(), c.e.mss(), cm.NoLoss, 0)
}

func (c *cmCC) onRecoveryExit() {}

func (c *cmCC) onTimeout() {
	if !c.opened {
		return
	}
	// The expiration of the retransmission timer signifies persistent
	// congestion (CM_LOST_FEEDBACK).
	c.cm.Update(c.flow, c.e.inFlight(), 0, cm.PersistentLoss, 0)
}

var (
	_ ccProvider = (*nativeCC)(nil)
	_ ccProvider = (*cmCC)(nil)
)
