package app

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/udp"
)

// A feedback report is two pooled objects, the datagram and the *Report in
// its App, and both die with the packet. With every packet duplicated in both
// directions, each data datagram is acknowledged twice and each report
// arrives twice: all four copies must read intact, because a duplicate owns a
// clone of the datagram and of the report rather than sharing what the first
// hand-up releases. A report kept past the callback reads as released.
func TestDuplicatedReportsArriveIntact(t *testing.T) {
	link := bottleneck(10*netsim.Mbps, 5*time.Millisecond)
	link.DuplicateRate = 1
	e := newAppEnv(t, link)
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
		if rep.HighestSeq != seq || rep.TotalPackets != wantPackets || rep.TotalBytes != 400*wantPackets || !rep.pooled {
			t.Fatalf("report copy %d reads %+v, want seq %d after %d packets", i, rep, seq, wantPackets)
		}
	}
	for i, rep := range kept {
		if rep.TotalPackets != -1 || rep.HighestSeq != -1 {
			t.Fatalf("report %d kept past the callback reads %+v, want the released marker", i, *rep)
		}
	}
}
