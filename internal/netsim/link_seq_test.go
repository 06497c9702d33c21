package netsim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

type orderRecorder struct{ got []int }

func (r *orderRecorder) Receive(pkt *Packet) {
	r.got = append(r.got, pkt.Payload.(int))
	pkt.Release()
}

// Simultaneous deliveries on one link direction — an infinitely fast link
// serialises a whole burst at one instant, so every hand-up shares
// (time, stamp, key) — must arrive in send order via the explicit link-local
// delivery sequence.
func TestSameDirectionSimultaneousDeliveryOrder(t *testing.T) {
	sched := simtime.NewScheduler()
	rec := &orderRecorder{}
	l := NewLink(sched, LinkConfig{Name: "burst", Delay: 5 * time.Millisecond}, rec)

	for i := 0; i < 8; i++ {
		p := NewPacket()
		p.Size = 100
		p.Payload = i
		l.Send(p)
	}
	sched.Run()

	if len(rec.got) != 8 {
		t.Fatalf("delivered %d packets, want 8", len(rec.got))
	}
	for i, v := range rec.got {
		if v != i {
			t.Fatalf("delivery order %v, want send order", rec.got)
		}
	}
}

// The delivery sequence must be explicit on the hand-up, not inherited from
// scheduler insertion order: capture a burst's remote deliveries, inject them
// into a fresh scheduler in REVERSE order, and check the hand-ups still fire
// in the original send order. (Before the explicit sub-sequence this ordering
// leaned on InjectAt insertion order, which an optimistic executor cannot
// guarantee.)
func TestRemoteDeliverySeqRestoresSendOrder(t *testing.T) {
	send := simtime.NewScheduler()
	l := NewLink(send, LinkConfig{Name: "burst", Delay: 5 * time.Millisecond}, nil)

	type capture struct {
		pkt          *Packet
		arrive, sent time.Duration
		seq          uint32
	}
	var caps []capture
	l.SetRemoteDeliver(func(pkt *Packet, arrive, sent time.Duration, seq uint32) {
		caps = append(caps, capture{pkt, arrive, sent, seq})
	})

	for i := 0; i < 4; i++ {
		p := NewPacket()
		p.Size = 100
		p.Payload = i
		l.Send(p)
	}
	send.Run()
	if len(caps) != 4 {
		t.Fatalf("captured %d remote deliveries, want 4", len(caps))
	}
	for i := 1; i < len(caps); i++ {
		if caps[i].seq <= caps[i-1].seq {
			t.Fatalf("delivery sequence not increasing: %d then %d", caps[i-1].seq, caps[i].seq)
		}
	}

	recv := simtime.NewScheduler()
	rec := &orderRecorder{}
	l.SetDestination(rec)
	for i := len(caps) - 1; i >= 0; i-- { // worst-case insertion order
		c := caps[i]
		recv.InjectAt(c.arrive, c.sent, l.SortKey(), c.seq, simtime.KindPktDeliver,
			func(x any) { l.DeliverRemote(x.(*Packet), recv.Now()) }, c.pkt)
	}
	recv.Run()

	if len(rec.got) != 4 {
		t.Fatalf("handed up %d packets, want 4", len(rec.got))
	}
	for i, v := range rec.got {
		if v != i {
			t.Fatalf("hand-up order %v, want original send order", rec.got)
		}
	}
}
