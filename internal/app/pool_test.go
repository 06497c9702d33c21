package app

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/udp"
)

// duplicator sits between a link and the host it delivers to and hands every
// packet up twice: the second time as a literal (unpooled) packet carrying a
// literal datagram and, for a feedback report, a literal report, copied
// before the host releases the original.
type duplicator struct{ dst netsim.Receiver }

func (d duplicator) Receive(pkt *netsim.Packet) {
	dg := *pkt.Payload.(*udp.Datagram)
	if rep, ok := dg.App.(*Report); ok {
		r := *rep
		r.pooled = false
		dg.App = &r
	}
	dup := &netsim.Packet{Proto: pkt.Proto, Src: pkt.Src, Dst: pkt.Dst, Size: pkt.Size, TTL: pkt.TTL,
		Payload: &udp.Datagram{Seq: dg.Seq, SentAt: dg.SentAt, Size: dg.Size, App: dg.App}}
	d.dst.Receive(pkt)
	d.dst.Receive(dup)
}

// A feedback report is two pooled objects, the datagram and the *Report in
// its App, and both die with the packet. With every packet handed up twice in
// both directions, each data datagram is acknowledged twice and each report
// arrives twice: all four copies must read intact, the literal copy handed up
// after the host released the pooled original included. A pooled report kept
// past the callback reads as released.
func TestDuplicatedReportsArriveIntact(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, 5*time.Millisecond))
	e.duplex.Forward.SetDestination(duplicator{e.net.Host("client")})
	e.duplex.Reverse.SetDestination(duplicator{e.net.Host("server")})
	rx, err := NewReceiver(e.net.Host("client"), 6000, FeedbackPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := udp.NewSocket(e.net.Host("server"), 0)
	var reports []Report
	var kept []*Report
	tx.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		if d.Size != reportSize {
			t.Errorf("report datagram reads size %d", d.Size)
		}
		if rep, ok := d.App.(*Report); ok {
			reports = append(reports, *rep)
			kept = append(kept, rep)
		}
	})
	const n = 5
	for i := 1; i <= n; i++ {
		d := udp.NewDatagram()
		d.Seq, d.Size = int64(i), 400
		tx.SendTo(rx.Addr(), d)
		e.sched.RunFor(100 * time.Millisecond)
	}
	if rx.TotalPackets() != 2*n || len(reports) != 4*n {
		t.Fatalf("receiver saw %d datagrams and sent back %d report copies, want %d and %d",
			rx.TotalPackets(), len(reports), 2*n, 4*n)
	}
	for i, rep := range reports {
		// Copies 4k..4k+3 acknowledge data packet k+1: two reports (one per
		// copy of the datagram), each delivered twice.
		seq := int64(i/4 + 1)
		wantPackets := 2*(seq-1) + int64(i%4)/2 + 1
		if rep.HighestSeq != seq || rep.TotalPackets != wantPackets || rep.TotalBytes != 400*wantPackets || rep.pooled != (i%2 == 0) {
			t.Fatalf("report copy %d reads %+v, want seq %d after %d packets", i, rep, seq, wantPackets)
		}
	}
	for i, rep := range kept {
		if released := rep.TotalPackets == -1 && rep.HighestSeq == -1; released != (i%2 == 0) {
			t.Fatalf("report %d kept past the callback reads %+v: only a pooled one reads as released", i, *rep)
		}
	}
}
