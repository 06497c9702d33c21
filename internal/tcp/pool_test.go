package tcp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/race"
)

// A TCP data segment and the ACK it triggers allocate nothing: packet and
// segment come from their pools and go back when the receiving host is done
// with them, and rearming the retransmission timer needs no closure. Gated for
// both congestion control providers.
func TestSegmentRoundTripZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	for _, useCM := range []bool{false, true} {
		e := newEnv(t, lan(), useCM)
		cfg := Config{CongestionControl: CCNative}
		if useCM {
			cfg = Config{CongestionControl: CCCM, CM: e.cm}
		}
		sk := listenSink(t, e, 80, Config{})
		ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip := func() {
			ep.Send(ep.mss())
			e.sched.RunFor(10 * time.Millisecond)
		}
		for i := 0; i < 64; i++ {
			roundTrip() // handshake, window growth, pool and freelist fill
		}
		sent, acked := ep.Stats().SegmentsSent, sk.ep.Stats().AcksSent
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
			t.Errorf("cm=%v: data+ACK round trip allocated %.1f objects, want 0", useCM, allocs)
		}
		if ep.Stats().SegmentsSent-sent < 200 || sk.ep.Stats().AcksSent-acked < 200 {
			t.Fatalf("cm=%v: round trips did not each send a segment and an ACK", useCM)
		}
	}
}

// The rule for receivers is "copy what you need during Handle, keep nothing".
// A handler that breaks it must find out at once: a released segment reads as
// values no live segment carries, not as its old contents and not (until the
// pool hands it out again) as somebody else's.
func TestRetainedSegmentReadsAsReleased(t *testing.T) {
	e := newEnv(t, lan(), false)
	var kept *Segment
	var copied Segment
	err := e.net.Host("server").Bind(netsim.ProtoTCP, 80, node.HandlerFunc(func(pkt *netsim.Packet) {
		kept = pkt.Payload.(*Segment)
		copied = *kept
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg()); err != nil {
		t.Fatal(err)
	}
	e.sched.RunFor(10 * time.Millisecond) // delivers the SYN, before any retransmission
	if kept == nil || !copied.SYN || copied.Seq != 1 || !copied.pooled {
		t.Fatalf("handler saw %+v, want the client's pooled SYN", copied)
	}
	if *kept != released || kept.seqLen() >= 0 {
		t.Fatalf("segment kept past Handle reads %+v, want the released marker", *kept)
	}
}

// Releasing a segment twice puts it in the pool once (two later owners would
// otherwise share it), and a literal segment is never recycled, so a test or
// tool may attach one to any number of packets.
func TestSegmentReleaseOnceAndLiteralsUnpooled(t *testing.T) {
	seg := newSegment(Segment{Seq: 7})
	seg.ReleasePayload()
	seg.ReleasePayload()
	a, b := newSegment(Segment{}), newSegment(Segment{})
	if a == b {
		t.Fatal("double release put one segment in the pool twice")
	}

	lit := &Segment{Seq: 5, Len: 100}
	for i := 0; i < 2; i++ {
		pkt := netsim.NewPacket()
		pkt.Payload = lit
		pkt.Release()
		if lit.Seq != 5 || lit.Len != 100 {
			t.Fatalf("literal segment recycled by Release: %+v", *lit)
		}
	}
}

// With every packet duplicated in both directions, the copy handed up after
// the host has released the original carries a segment of its own: the
// stream still arrives exactly.
func TestTransferSurvivesTotalDuplication(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e, _ := impairedEnv(t, 0, 0, 1, 41, useCM)
		runImpaired(t, e, useCM, 100_000)
	}
}
