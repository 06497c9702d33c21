// Package integration contains cross-module scenario tests: full stacks
// (TCP/CM, congestion-controlled UDP, user-space adaptive applications)
// sharing Congestion Manager state on simulated networks. These are the
// system-level behaviours the paper's architecture promises, exercised
// end to end rather than per package.
package integration

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/cm"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// env is a sender host with a CM plus one or more receiver hosts.
type env struct {
	sched  *simtime.Scheduler
	net    *node.Network
	cm     *cm.CM
	sender *node.Host
}

func newEnv(t *testing.T) *env {
	t.Helper()
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	c := cm.New(s, s)
	e := &env{sched: s, net: nw, cm: c, sender: nw.Host("sender")}
	e.sender.SetTransmitNotifier(c)
	return e
}

func (e *env) connect(receiver string, bw netsim.Bandwidth, delay time.Duration, loss float64, seed int64) {
	e.net.ConnectDuplex("sender", receiver, netsim.LinkConfig{
		Bandwidth:    bw,
		Delay:        delay,
		LossRate:     loss,
		QueuePackets: 100,
		Seed:         seed,
	})
}

// TestMixedClientsShareOneMacroflow runs the paper's headline scenario: an
// in-kernel TCP/CM transfer, a congestion-controlled UDP socket and a
// user-space layered streaming server, all sending to the same destination
// host, must share a single macroflow and a single congestion window, and all
// of them must make progress.
func TestMixedClientsShareOneMacroflow(t *testing.T) {
	e := newEnv(t)
	e.connect("receiver", 8*netsim.Mbps, 25*time.Millisecond, 0, 5)
	rcvr := e.net.Host("receiver")

	// 1. TCP/CM bulk transfer.
	var tcpDelivered int64
	if _, err := tcp.Listen(rcvr, 80, tcp.Config{DelayedAck: true}, func(ep *tcp.Endpoint, _ any) {
		ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { tcpDelivered += int64(n) })
	}, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := tcp.Dial(e.sender, netsim.Addr{Host: "receiver", Port: 80},
		tcp.Config{CongestionControl: tcp.CCCM, CM: e.cm, DelayedAck: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished(func(*tcp.Endpoint, any) {
		conn.Send(600_000)
		conn.Close()
	})

	// 2. Congestion-controlled UDP with an ideal application feedback loop.
	udpSink, err := udp.NewSocket(rcvr, 9000)
	if err != nil {
		t.Fatal(err)
	}
	ccSock, err := udp.NewCCSocket(e.sender, 0, netsim.Addr{Host: "receiver", Port: 9000}, e.cm, 256)
	if err != nil {
		t.Fatal(err)
	}
	var udpDelivered int64
	udpSink.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		udpDelivered += int64(d.Size)
		size := d.Size
		e.sched.After(50*time.Millisecond, func() {
			ccSock.Update(size, size, cm.NoLoss, 50*time.Millisecond)
		})
	})
	for i := 0; i < 200; i++ {
		ccSock.Send(&udp.Datagram{Seq: int64(i), Size: 1000})
	}

	// 3. User-space layered streaming server through libcm.
	lib := libcm.New(e.cm, e.sched, libcm.ModeAuto)
	client, err := app.NewReceiver(rcvr, 7000, app.FeedbackPolicy{EveryPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := app.NewLayeredServer(e.sender, lib, client.Addr(), app.LayeredConfig{
		Mode:   app.ModeALF,
		Layers: []float64{62_500, 125_000, 250_000, 500_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	stream.Start()

	e.sched.RunFor(20 * time.Second)
	stream.Stop()

	// All three clients made progress. The TCP transfer must complete; the
	// UDP burst and the stream share the remaining window round-robin, so
	// they are expected to progress substantially but need not finish.
	if tcpDelivered != 600_000 {
		t.Fatalf("TCP delivered %d of 600000 bytes", tcpDelivered)
	}
	if udpDelivered < 100_000 || udpDelivered > 200_000 {
		t.Fatalf("CC-UDP delivered %d bytes, want at least half of its 200000-byte burst", udpDelivered)
	}
	if client.TotalBytes() == 0 {
		t.Fatal("layered stream delivered nothing")
	}

	// Everything to "receiver" shares exactly one macroflow.
	if e.cm.MacroflowCount() != 1 {
		t.Fatalf("macroflows = %d, want 1 (per-destination aggregation)", e.cm.MacroflowCount())
	}
	// Query through different flows reports the same shared path state.
	stStream, ok1 := e.cm.Query(stream.Flow())
	stUDP, ok2 := e.cm.Query(ccSock.Flow())
	if !ok1 || !ok2 {
		t.Fatal("Query failed")
	}
	if stStream.MacroflowRate != stUDP.MacroflowRate || stStream.SRTT != stUDP.SRTT {
		t.Fatalf("flows of one macroflow must share state: %+v vs %+v", stStream, stUDP)
	}
	if stStream.SRTT < 40*time.Millisecond || stStream.SRTT > 300*time.Millisecond {
		t.Fatalf("shared srtt %v is implausible for a 50 ms path", stStream.SRTT)
	}

	// The aggregate goodput cannot exceed the bottleneck.
	total := float64(tcpDelivered) + float64(udpDelivered) + float64(client.TotalBytes())
	linkBytes := (8 * netsim.Mbps).BytesPerSecond() * e.sched.Now().Seconds()
	if total > linkBytes {
		t.Fatalf("aggregate goodput %.0f exceeds link capacity %.0f", total, linkBytes)
	}
}

// TestMacroflowsToDifferentHostsAreIndependent checks that congestion on one
// path does not collapse the window of a macroflow to a different host.
func TestMacroflowsToDifferentHostsAreIndependent(t *testing.T) {
	e := newEnv(t)
	e.connect("clean", 10*netsim.Mbps, 10*time.Millisecond, 0, 7)
	e.connect("lossy", 10*netsim.Mbps, 10*time.Millisecond, 0.08, 9)

	run := func(host string, port int) (*int64, *time.Duration) {
		delivered := new(int64)
		doneAt := new(time.Duration)
		if _, err := tcp.Listen(e.net.Host(host), port, tcp.Config{DelayedAck: true}, func(ep *tcp.Endpoint, _ any) {
			ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { *delivered += int64(n) })
			ep.OnClosed(func(*tcp.Endpoint, any) { *doneAt = e.sched.Now() })
		}, nil); err != nil {
			t.Fatal(err)
		}
		ep, err := tcp.Dial(e.sender, netsim.Addr{Host: host, Port: port},
			tcp.Config{CongestionControl: tcp.CCCM, CM: e.cm, DelayedAck: true})
		if err != nil {
			t.Fatal(err)
		}
		ep.OnEstablished(func(*tcp.Endpoint, any) {
			ep.Send(1_000_000)
			ep.Close()
		})
		return delivered, doneAt
	}
	cleanBytes, cleanDone := run("clean", 80)
	lossyBytes, lossyDone := run("lossy", 80)
	e.sched.RunFor(60 * time.Second)

	if e.cm.MacroflowCount() != 2 {
		t.Fatalf("macroflows = %d, want 2", e.cm.MacroflowCount())
	}
	if *cleanBytes != 1_000_000 || *cleanDone == 0 {
		t.Fatalf("clean-path transfer incomplete: %d bytes", *cleanBytes)
	}
	if *lossyBytes != 1_000_000 || *lossyDone == 0 {
		t.Fatalf("lossy-path transfer incomplete: %d bytes", *lossyBytes)
	}
	// Loss on one path slows that macroflow but not the other.
	if *cleanDone >= *lossyDone {
		t.Fatalf("clean path (done %v) should finish before the 8%%-loss path (done %v)", *cleanDone, *lossyDone)
	}
}

// TestVatAndTCPShareABottleneck runs the interactive audio source next to a
// TCP/CM bulk transfer over a narrow link: the vat policer must shed load
// while both flows continue to make progress and the application buffer stays
// bounded.
func TestVatAndTCPShareABottleneck(t *testing.T) {
	e := newEnv(t)
	e.connect("receiver", 200*netsim.Kbps, 40*time.Millisecond, 0, 21)
	rcvr := e.net.Host("receiver")

	var tcpDelivered int64
	if _, err := tcp.Listen(rcvr, 80, tcp.Config{DelayedAck: true}, func(ep *tcp.Endpoint, _ any) {
		ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { tcpDelivered += int64(n) })
	}, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := tcp.Dial(e.sender, netsim.Addr{Host: "receiver", Port: 80},
		tcp.Config{CongestionControl: tcp.CCCM, CM: e.cm, DelayedAck: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished(func(*tcp.Endpoint, any) { conn.Send(1 << 20) }) // stays backlogged

	callee, err := app.NewReceiver(rcvr, 5004, app.FeedbackPolicy{EveryPackets: 1})
	if err != nil {
		t.Fatal(err)
	}
	vat, err := app.NewVatSource(e.sender, e.cm, callee.Addr(), app.VatConfig{DropPolicy: netsim.DropHead})
	if err != nil {
		t.Fatal(err)
	}
	vat.Start()
	e.sched.RunFor(60 * time.Second)
	vat.Stop()

	st := vat.Stats()
	if st.FramesSent == 0 || callee.TotalPackets() == 0 {
		t.Fatal("audio made no progress")
	}
	if tcpDelivered == 0 {
		t.Fatal("TCP made no progress")
	}
	// On a 25 KB/s link shared with TCP, a 8 KB/s audio source must shed a
	// part of its load preemptively rather than queueing it.
	if st.PolicerDrops+st.BufferDrops == 0 {
		t.Fatal("vat should have adapted by dropping frames")
	}
	if vat.AppBufferDepth() > 16 {
		t.Fatal("vat application buffer exceeded its bound")
	}
	// Both flows live in the same macroflow.
	if e.cm.MacroflowCount() != 1 {
		t.Fatalf("macroflows = %d, want 1", e.cm.MacroflowCount())
	}
}

// TestSequentialConnectionsAcrossApplications checks that state learned by a
// TCP/CM transfer benefits a subsequent congestion-controlled UDP burst to the
// same destination (cross-application sharing over time, the generalisation
// of Figure 7).
func TestSequentialConnectionsAcrossApplications(t *testing.T) {
	e := newEnv(t)
	e.connect("receiver", 10*netsim.Mbps, 30*time.Millisecond, 0, 23)
	rcvr := e.net.Host("receiver")

	var tcpDelivered int64
	if _, err := tcp.Listen(rcvr, 80, tcp.Config{DelayedAck: true}, func(ep *tcp.Endpoint, _ any) {
		ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { tcpDelivered += int64(n) })
	}, nil); err != nil {
		t.Fatal(err)
	}
	conn, err := tcp.Dial(e.sender, netsim.Addr{Host: "receiver", Port: 80},
		tcp.Config{CongestionControl: tcp.CCCM, CM: e.cm, DelayedAck: true})
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished(func(*tcp.Endpoint, any) {
		conn.Send(400_000)
		conn.Close()
	})
	e.sched.RunFor(10 * time.Second)
	if tcpDelivered != 400_000 {
		t.Fatalf("warm-up transfer incomplete: %d", tcpDelivered)
	}

	// The UDP burst starts with the macroflow's learned window rather than
	// 1 MTU: its first grant batch (before any feedback) should release
	// several datagrams, not just one.
	sink, err := udp.NewSocket(rcvr, 9100)
	if err != nil {
		t.Fatal(err)
	}
	var burstDelivered int
	sink.OnReceive(func(_ netsim.Addr, d *udp.Datagram) { burstDelivered += d.Size })
	cc, err := udp.NewCCSocket(e.sender, 0, netsim.Addr{Host: "receiver", Port: 9100}, e.cm, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		cc.Send(&udp.Datagram{Seq: int64(i), Size: 1000})
	}
	// No feedback is given at all: only the inherited window can release data.
	e.sched.RunFor(2 * time.Second)
	if burstDelivered <= 2000 {
		t.Fatalf("burst should ride the window learned by TCP, delivered only %d bytes", burstDelivered)
	}
}
