package tcp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// These tests inject network pathologies beyond random loss — reordering,
// duplication, and combinations with loss — and check that both congestion
// control providers still deliver the byte stream exactly.

// impairer sits between a link and the host it delivers to. It holds back
// one packet in holdEvery for holdFor, so that packets sent after it overtake
// it, and hands one packet in dupEvery up twice: the second time as a literal
// (unpooled) packet carrying a literal copy of the segment, made before the
// host releases the original.
type impairer struct {
	sched     *simtime.Scheduler
	dst       netsim.Receiver
	holdEvery int
	holdFor   time.Duration
	dupEvery  int

	n, held, duplicated int
}

func (im *impairer) Receive(pkt *netsim.Packet) {
	im.n++
	if im.holdEvery > 0 && im.n%im.holdEvery == 0 {
		im.held++
		im.sched.After(im.holdFor, func() { im.dst.Receive(pkt) })
		return
	}
	var dup *netsim.Packet
	if im.dupEvery > 0 && im.n%im.dupEvery == 0 {
		seg := *pkt.Payload.(*Segment)
		seg.pooled = false
		dup = &netsim.Packet{Proto: pkt.Proto, Src: pkt.Src, Dst: pkt.Dst, Size: pkt.Size,
			Control: pkt.Control, TTL: pkt.TTL, Payload: &seg}
		im.duplicated++
	}
	im.dst.Receive(pkt)
	if dup != nil {
		im.dst.Receive(dup)
	}
}

// impairedEnv is newEnv on a 10 Mbps, 20 ms path with Bernoulli loss on the
// link and an impairer in front of each host: both directions hold back one
// packet in holdEvery by 8 ms and duplicate one in dupEvery (zero disables
// either). It returns the impairers of the client-to-server and the
// server-to-client direction.
func impairedEnv(t *testing.T, loss float64, holdEvery, dupEvery int, seed int64, withCM bool) (*env, [2]*impairer) {
	t.Helper()
	e := newEnv(t, netsim.LinkConfig{
		Bandwidth:    10 * netsim.Mbps,
		Delay:        20 * time.Millisecond,
		QueuePackets: 120,
		LossRate:     loss,
		Seed:         seed,
	}, withCM)
	var ims [2]*impairer
	for i, dir := range []struct {
		link *netsim.Link
		dst  string
	}{{e.duplex.Forward, "server"}, {e.duplex.Reverse, "client"}} {
		ims[i] = &impairer{sched: e.sched, dst: e.net.Host(dir.dst), holdEvery: holdEvery,
			holdFor: 8 * time.Millisecond, dupEvery: dupEvery}
		dir.link.SetDestination(ims[i])
	}
	return e, ims
}

func runImpaired(t *testing.T, e *env, useCM bool, n int) (*Endpoint, *sink) {
	t.Helper()
	cfg := nativeCfg()
	if useCM {
		cfg = cmClientCfg(e)
	}
	ep, sk := transfer(t, e, cfg, nativeCfg(), n, 10*time.Minute)
	if sk.delivered != int64(n) {
		t.Fatalf("delivered %d of %d bytes (cm=%v)", sk.delivered, n, useCM)
	}
	if !sk.closed {
		t.Fatal("FIN never arrived")
	}
	return ep, sk
}

func TestTransferSurvivesReordering(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e, ims := impairedEnv(t, 0, 20, 0, 31, useCM)
		ep, _ := runImpaired(t, e, useCM, 200_000)
		if ims[0].held == 0 {
			t.Fatalf("cm=%v: no data segment was held back", useCM)
		}
		// Reordering produces duplicate ACKs; spurious fast retransmits are
		// acceptable but the transfer must not collapse into timeouts.
		if ep.Stats().Timeouts > 3 {
			t.Fatalf("cm=%v: %d timeouts under mild reordering", useCM, ep.Stats().Timeouts)
		}
	}
}

func TestTransferSurvivesDuplication(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e, ims := impairedEnv(t, 0, 0, 10, 33, useCM)
		// runImpaired fails unless the application sees each byte once.
		ep, _ := runImpaired(t, e, useCM, 200_000)
		if ims[0].duplicated == 0 || ims[1].duplicated == 0 {
			t.Fatalf("cm=%v: duplicated %d data and %d ACK packets, want both", useCM, ims[0].duplicated, ims[1].duplicated)
		}
		if ep.Stats().Retransmissions > 50 {
			t.Fatalf("cm=%v: %d retransmissions caused by duplication alone", useCM, ep.Stats().Retransmissions)
		}
	}
}

func TestTransferSurvivesCombinedImpairments(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e, _ := impairedEnv(t, 0.03, 33, 20, 37, useCM)
		runImpaired(t, e, useCM, 120_000)
	}
}

func TestDuplicateAcksFromReorderingDoNotBreakCMAccounting(t *testing.T) {
	e, _ := impairedEnv(t, 0, 5, 0, 39, true)
	const n = 150_000
	_, sk := transfer(t, e, cmClientCfg(e), nativeCfg(), n, 10*time.Minute)
	if sk.delivered != n {
		t.Fatalf("delivered %d of %d", sk.delivered, n)
	}
	// After the transfer the macroflow must not be left with phantom
	// outstanding bytes large enough to wedge a future flow: the background
	// starvation task or the accounting itself must keep it sane.
	e.sched.RunFor(10 * time.Second)
	probe := e.cm.Open(netsim.ProtoTCP, netsim.Addr{Host: "client", Port: 99}, netsim.Addr{Host: "server", Port: 80})
	mf := e.cm.MacroflowOf(probe)
	if mf.Outstanding() != 0 {
		t.Fatalf("macroflow left with %d outstanding bytes after the flow closed", mf.Outstanding())
	}
	if mf.Window() < 1500 {
		t.Fatalf("macroflow window below one MTU: %d", mf.Window())
	}
}
