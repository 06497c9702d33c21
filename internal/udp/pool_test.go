package udp

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/race"
)

// A congestion-controlled send — queue, CM request and grant, packet out,
// delivery — allocates nothing, whether the caller draws its datagrams from
// the pool (the applications) or re-sends one literal (cmperf's
// api.udp.cc_send loop). The kernel queue reuses its backing array.
func TestCCSocketSendZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	for _, pooled := range []bool{true, false} {
		e := newUDPEnv(t, fastLink())
		cc, rx := newCCPair(t, e, 64)
		var rcvd int
		rx.OnReceive(func(_ netsim.Addr, d *Datagram) { rcvd += d.Size })
		cc.Update(0, 1<<24, cm.NoLoss, time.Millisecond) // a window that never closes
		lit := &Datagram{Size: 1000}
		send := func() {
			d := lit
			if pooled {
				d = NewDatagram()
				d.Size = 1000
			}
			cc.Send(d)
			e.sched.Run()
			cc.Update(1000, 1000, cm.NoLoss, 0)
		}
		for i := 0; i < 256; i++ {
			send()
		}
		before := rcvd
		if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
			t.Errorf("pooled=%v: CCSocket send allocated %.1f objects, want 0", pooled, allocs)
		}
		if rcvd-before < 500*1000 {
			t.Fatalf("pooled=%v: sends were not delivered", pooled)
		}
	}
}

// A &Datagram{} literal is never pooled: however often it is sent, queued,
// dropped or delivered, nothing overwrites it and the pool never hands it to
// anyone else — cmperf re-sends one literal every iteration and reads it
// afterwards.
func TestLiteralDatagramNeverRecycled(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, rx := newCCPair(t, e, 2)
	var sizes []int
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) { sizes = append(sizes, d.Size) })
	lit := &Datagram{Seq: 9, Size: 1000}
	for i := 0; i < 50; i++ {
		cc.Send(lit) // a 2-deep queue: some of these are queue drops
		if i%5 == 4 {
			e.sched.RunFor(100 * time.Millisecond)
			cc.Update(5000, 5000, cm.NoLoss, 0)
		}
	}
	e.sched.Run()
	if cc.Stats().QueueDrops == 0 || len(sizes) == 0 {
		t.Fatalf("want both queue drops and deliveries, got %d and %d", cc.Stats().QueueDrops, len(sizes))
	}
	if lit.Seq != 9 || lit.Size != 1000 || lit.App != nil {
		t.Fatalf("literal datagram overwritten: %+v", *lit)
	}
	for _, sz := range sizes {
		if sz != 1000 {
			t.Fatalf("a delivery of the literal read size %d", sz)
		}
	}
	for i := 0; i < 100; i++ {
		if d := NewDatagram(); d == lit {
			t.Fatal("the pool handed out the literal datagram")
		}
	}
}

// ReceiveFunc callbacks may read the datagram during the call and keep
// nothing. One that keeps it reads values no live datagram has.
func TestRetainedDatagramReadsAsReleased(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	rx, err := NewSocket(e.net.Host("receiver"), 5000)
	if err != nil {
		t.Fatal(err)
	}
	var kept *Datagram
	var copied Datagram
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) { kept, copied = d, *d })
	tx, err := NewSocket(e.net.Host("sender"), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatagram()
	d.Seq, d.Size = 3, 700
	tx.SendTo(netsim.Addr{Host: "receiver", Port: 5000}, d)
	e.sched.Run()
	if kept != d || copied.Seq != 3 || copied.Size != 700 {
		t.Fatalf("callback saw %+v, want the datagram sent", copied)
	}
	if *kept != released || kept.Size >= 0 {
		t.Fatalf("datagram kept past the callback reads %+v, want the released marker", *kept)
	}
	// A second release (the sender's, say) must not put it in the pool again.
	d.ReleasePayload()
	if a, b := NewDatagram(), NewDatagram(); a == b {
		t.Fatal("double release put one datagram in the pool twice")
	}
}

// The socket owns a pooled datagram from Send on, whatever happens to it: a
// queue drop, a send after Close and a Close with datagrams still queued all
// release it.
func TestCCSocketReleasesWhatItDrops(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 1)
	var sent []*Datagram
	for i := 0; i < 4; i++ {
		d := NewDatagram()
		d.Size = 1000
		sent = append(sent, d)
		cc.Send(d)
	}
	if cc.Stats().QueueDrops == 0 || cc.QueueLen() == 0 {
		t.Fatalf("want a full queue and drops, got len %d drops %d", cc.QueueLen(), cc.Stats().QueueDrops)
	}
	cc.Close()
	late := NewDatagram()
	cc.Send(late)
	e.sched.Run()
	for i, d := range append(sent, late) {
		if *d != released {
			t.Fatalf("datagram %d not released: %+v", i, *d)
		}
	}
}
