package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
)

// timeWait is what stays bound on the host once a connection is fully
// closed, in the place of its Endpoint (the precedent is Linux's
// tcp_timewait_sock replacing the full socket). A TIME-WAIT connection counts
// late segments and re-acknowledges late data or a late FIN so the peer can
// finish, and both need only the sequence state frozen below: no timer, no
// congestion controller, no reference to the endpoint, which therefore lives
// exactly as long as its callers keep it. Records are never reaped within a
// run (see "Closing" in the package documentation).
type timeWait struct {
	host          *node.Host
	local, remote netsim.Addr
	peer          int32

	sndNxt, rcvNxt int64
	wnd            int
	lastTSVal      time.Duration

	segmentsRcvd, acksSent int64
}

// Handle implements node.Handler.
func (t *timeWait) Handle(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*Segment)
	if !ok {
		return
	}
	t.segmentsRcvd++
	if seg.Len == 0 && !seg.FIN {
		return
	}
	t.acksSent++
	outputAck(t.host, t.local, t.remote, t.peer, t.sndNxt, t.rcvNxt, t.wnd, t.lastTSVal)
}

var _ node.Handler = (*timeWait)(nil)
