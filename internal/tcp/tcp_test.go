package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

// env is a two-host test network: "client" (data sender in these tests) and
// "server" (data sink).
type env struct {
	sched  *simtime.Scheduler
	net    *node.Network
	duplex *netsim.Duplex
	cm     *cm.CM // client-side CM (installed only when requested)
}

func newEnv(t *testing.T, link netsim.LinkConfig, withCM bool) *env {
	t.Helper()
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	d := nw.ConnectDuplex("client", "server", link)
	e := &env{sched: s, net: nw, duplex: d}
	if withCM {
		e.cm = cm.New(s, s)
		nw.Host("client").SetTransmitNotifier(e.cm)
	}
	return e
}

func lan() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: 500 * time.Microsecond, QueuePackets: 200, Seed: 11}
}

func wan(loss float64) netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 30 * time.Millisecond, QueuePackets: 120, LossRate: loss, Seed: 23}
}

// sink accepts one connection on the server and records delivered bytes.
type sink struct {
	delivered int64
	closed    bool
	ep        *Endpoint
}

func listenSink(t *testing.T, e *env, port int, cfg Config) *sink {
	t.Helper()
	sk := &sink{}
	_, err := Listen(e.net.Host("server"), port, cfg, func(ep *Endpoint, _ any) {
		sk.ep = ep
		ep.OnReceive(func(_ *Endpoint, _ any, n int) { sk.delivered += int64(n) })
		ep.OnClosed(func(*Endpoint, any) { sk.closed = true })
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// transfer sends nbytes from the client to the server and runs the simulation
// until the server has seen the client's FIN (or the deadline passes).
func transfer(t *testing.T, e *env, clientCfg, serverCfg Config, nbytes int, deadline time.Duration) (*Endpoint, *sink) {
	t.Helper()
	sk := listenSink(t, e, 80, serverCfg)
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	ep.OnEstablished(func(*Endpoint, any) {
		ep.Send(nbytes)
		ep.Close()
	})
	e.sched.RunUntil(deadline)
	return ep, sk
}

func cmClientCfg(e *env) Config {
	return Config{CongestionControl: CCCM, CM: e.cm, DelayedAck: true}
}

func nativeCfg() Config {
	return Config{CongestionControl: CCNative, DelayedAck: true}
}

func TestHandshakeEstablishesBothEnds(t *testing.T) {
	e := newEnv(t, lan(), false)
	var serverEp *Endpoint
	_, err := Listen(e.net.Host("server"), 80, nativeCfg(), func(ep *Endpoint, _ any) { serverEp = ep }, nil)
	if err != nil {
		t.Fatal(err)
	}
	established := false
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg())
	if err != nil {
		t.Fatal(err)
	}
	ep.OnEstablished(func(*Endpoint, any) { established = true })
	if ep.State() != StateSynSent {
		t.Fatalf("client state = %v, want syn-sent", ep.State())
	}
	e.sched.RunFor(100 * time.Millisecond)
	if !established || ep.State() != StateEstablished {
		t.Fatalf("client not established: %v", ep.State())
	}
	if serverEp == nil || serverEp.State() != StateEstablished {
		t.Fatalf("server not established: %+v", serverEp)
	}
	if ep.Local().Host != "client" || ep.Remote() != (netsim.Addr{Host: "server", Port: 80}) {
		t.Fatal("endpoint addresses wrong")
	}
	if ep.Stats().EstablishedAt == 0 {
		t.Fatal("EstablishedAt not recorded")
	}
}

func TestDialPortConflict(t *testing.T) {
	e := newEnv(t, lan(), false)
	h := e.net.Host("server")
	if _, err := Listen(h, 80, nativeCfg(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Listen(h, 80, nativeCfg(), nil, nil); err == nil {
		t.Fatal("second listener on the same port should fail")
	}
}

func TestBulkTransferNative(t *testing.T) {
	e := newEnv(t, lan(), false)
	const n = 500_000
	ep, sk := transfer(t, e, nativeCfg(), nativeCfg(), n, 30*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d bytes, want %d", sk.delivered, n)
	}
	if !sk.closed {
		t.Fatal("server did not observe the FIN")
	}
	if ep.Stats().Retransmissions != 0 {
		t.Fatalf("clean link should need no retransmissions, got %d", ep.Stats().Retransmissions)
	}
	if ep.Stats().BytesAcked < n {
		t.Fatalf("BytesAcked = %d, want >= %d", ep.Stats().BytesAcked, n)
	}
}

func TestBulkTransferCM(t *testing.T) {
	e := newEnv(t, lan(), true)
	const n = 500_000
	ep, sk := transfer(t, e, cmClientCfg(e), nativeCfg(), n, 30*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d bytes, want %d", sk.delivered, n)
	}
	if e.cm.FlowCount() == 0 && e.cm.MacroflowCount() != 1 {
		t.Fatal("the CM should have managed the connection's macroflow")
	}
	// The macroflow must have been charged for (roughly) the data sent.
	mf := e.cm.MacroflowOf(0)
	if mf == nil {
		// The flow may have been closed; the macroflow still exists.
		if e.cm.MacroflowCount() != 1 {
			t.Fatal("macroflow state should persist after the connection closes")
		}
	}
	if ep.Stats().Retransmissions != 0 {
		t.Fatalf("clean link should need no retransmissions, got %d", ep.Stats().Retransmissions)
	}
}

func TestTransferSurvivesRandomLossNative(t *testing.T) {
	e := newEnv(t, wan(0.02), false)
	const n = 300_000
	ep, sk := transfer(t, e, nativeCfg(), nativeCfg(), n, 120*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d of %d bytes under 2%% loss", sk.delivered, n)
	}
	if ep.Stats().Retransmissions == 0 {
		t.Fatal("loss should have forced retransmissions")
	}
}

func TestTransferSurvivesRandomLossCM(t *testing.T) {
	e := newEnv(t, wan(0.02), true)
	const n = 300_000
	ep, sk := transfer(t, e, cmClientCfg(e), nativeCfg(), n, 120*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d of %d bytes under 2%% loss", sk.delivered, n)
	}
	if ep.Stats().Retransmissions == 0 {
		t.Fatal("loss should have forced retransmissions")
	}
}

func TestTransferSurvivesHeavyLoss(t *testing.T) {
	for _, ccName := range []CongestionControl{CCNative, CCCM} {
		e := newEnv(t, wan(0.10), ccName == CCCM)
		cfg := nativeCfg()
		if ccName == CCCM {
			cfg = cmClientCfg(e)
		}
		const n = 50_000
		_, sk := transfer(t, e, cfg, nativeCfg(), n, 300*time.Second)
		if sk.delivered != n {
			t.Fatalf("[%s] delivered %d of %d bytes under 10%% loss", ccName, sk.delivered, n)
		}
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	// Short-RTT 100 Mbps path with no loss (the paper's testbed LAN): a bulk
	// transfer should reach a large fraction of the link rate. (On long-RTT
	// lossy paths TCP is loss-limited well below the link rate, as the
	// paper's own Figure 3 shows; that regime is covered by the Fig. 3
	// experiment, not this test.)
	e := newEnv(t, lan(), false)
	const n = 4_000_000
	ep, sk := transfer(t, e, nativeCfg(), nativeCfg(), n, 60*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d of %d", sk.delivered, n)
	}
	// The server records ClosedAt when it sees the client's FIN, i.e. when
	// the whole transfer has arrived.
	elapsed := sk.ep.Stats().ClosedAt - ep.Stats().EstablishedAt
	if elapsed <= 0 {
		t.Fatalf("transfer did not finish: closed=%v established=%v", sk.ep.Stats().ClosedAt, ep.Stats().EstablishedAt)
	}
	throughput := float64(n) / elapsed.Seconds() // bytes/sec
	linkRate := (100 * netsim.Mbps).BytesPerSecond()
	if throughput < 0.70*linkRate {
		t.Fatalf("throughput %.0f B/s is below 70%% of the 100 Mbps link (%.0f B/s)", throughput, linkRate)
	}
	if throughput > linkRate*1.01 {
		t.Fatalf("throughput %.0f B/s exceeds the link rate %.0f B/s", throughput, linkRate)
	}
}

func TestDelayedAckHalvesAckTraffic(t *testing.T) {
	run := func(delayed bool) (acks int64, segs int64) {
		e := newEnv(t, lan(), false)
		cfg := Config{CongestionControl: CCNative, DelayedAck: delayed}
		_, sk := transfer(t, e, nativeCfg(), cfg, 300_000, 30*time.Second)
		return sk.ep.Stats().AcksSent, sk.ep.Stats().SegmentsRcvd
	}
	acksDelayed, _ := run(true)
	acksImmediate, segs := run(false)
	if acksImmediate < segs-2 {
		t.Fatalf("without delayed ACKs nearly every segment should be acked: %d acks for %d segments", acksImmediate, segs)
	}
	if float64(acksDelayed) > 0.65*float64(acksImmediate) {
		t.Fatalf("delayed ACKs should roughly halve ACK traffic: %d vs %d", acksDelayed, acksImmediate)
	}
}

func TestReceiverWindowLimitsInFlight(t *testing.T) {
	e := newEnv(t, lan(), false)
	serverCfg := nativeCfg()
	serverCfg.RecvWindow = 8 * 1024
	clientCfg := nativeCfg()
	sk := listenSink(t, e, 80, serverCfg)
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	maxInFlight := 0
	ep.OnEstablished(func(*Endpoint, any) {
		ep.Send(200_000)
		ep.Close()
	})
	for i := 0; i < 20000 && !sk.closed; i++ {
		e.sched.Step()
		if f := ep.inFlight(); f > maxInFlight {
			maxInFlight = f
		}
	}
	e.sched.RunFor(10 * time.Second)
	if sk.delivered != 200_000 {
		t.Fatalf("delivered %d", sk.delivered)
	}
	if maxInFlight > 8*1024+ep.mss() {
		t.Fatalf("in-flight %d exceeded the 8 KB receive window", maxInFlight)
	}
}

func TestSynLossIsRecovered(t *testing.T) {
	// Heavy loss makes it likely a SYN or SYN-ACK is dropped; the handshake
	// retransmission must still establish the connection.
	link := wan(0.30)
	link.Seed = 5
	e := newEnv(t, link, false)
	const n = 5_000
	_, sk := transfer(t, e, nativeCfg(), nativeCfg(), n, 600*time.Second)
	if sk.delivered != n {
		t.Fatalf("delivered %d of %d under 30%% loss", sk.delivered, n)
	}
}

func TestConnectionCloseReachesTimeWait(t *testing.T) {
	e := newEnv(t, lan(), false)
	sk := listenSink(t, e, 80, nativeCfg())
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg())
	if err != nil {
		t.Fatal(err)
	}
	clientSawClose := false
	ep.OnClosed(func(*Endpoint, any) { clientSawClose = true })
	ep.OnEstablished(func(*Endpoint, any) {
		ep.Send(10_000)
		ep.Close()
	})
	e.sched.RunFor(2 * time.Second)
	// Server closes its side once it has seen the client's FIN.
	if !sk.closed {
		t.Fatal("server did not see the client FIN")
	}
	sk.ep.Close()
	e.sched.RunFor(2 * time.Second)
	if !clientSawClose {
		t.Fatal("client did not see the server FIN")
	}
	if ep.State() != StateTimeWait {
		t.Fatalf("client state = %v, want time-wait", ep.State())
	}
	if sk.ep.State() != StateTimeWait {
		t.Fatalf("server state = %v, want time-wait", sk.ep.State())
	}
	if ep.Stats().ClosedAt == 0 || sk.ep.Stats().ClosedAt == 0 {
		t.Fatal("close times not recorded")
	}
}

func TestCMFlowLifecycle(t *testing.T) {
	e := newEnv(t, lan(), true)
	sk := listenSink(t, e, 80, nativeCfg())
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cmClientCfg(e))
	if err != nil {
		t.Fatal(err)
	}
	ep.OnEstablished(func(*Endpoint, any) {
		if e.cm.FlowCount() != 1 {
			t.Error("cm_open should have been called at connection establishment")
		}
		ep.Send(100_000)
		ep.Close()
	})
	e.sched.RunFor(5 * time.Second)
	if sk.delivered != 100_000 {
		t.Fatalf("delivered %d", sk.delivered)
	}
	sk.ep.Close()
	e.sched.RunFor(5 * time.Second)
	if ep.State() != StateTimeWait {
		t.Fatalf("client state %v", ep.State())
	}
	if e.cm.FlowCount() != 0 {
		t.Fatal("cm_close should have been called when the connection fully closed")
	}
	if e.cm.MacroflowCount() != 1 {
		t.Fatal("macroflow state should persist for future connections")
	}
	acct := e.cm.Accounting()
	if acct.Requests == 0 || acct.Updates == 0 || acct.Notifies == 0 || acct.GrantsIssued == 0 {
		t.Fatalf("CM API should have been exercised: %+v", acct)
	}
}

// A CM connection's data segments carry its live CM flow handle to the IP
// output hook; the handshake and the other control segments carry none, and
// after a CM restart the stamp is the handle CMRestarted re-opened.
func TestCMDataSegmentsCarryFlowHandle(t *testing.T) {
	e := newEnv(t, lan(), true)
	listenSink(t, e, 80, nativeCfg())
	type sent struct {
		syn, control, stamped bool
		handle                cm.FlowID
	}
	var log []sent
	e.duplex.Forward.SetSendTap(func(p *netsim.Packet) {
		h, ok := p.CMFlow()
		log = append(log, sent{syn: p.Payload.(*Segment).SYN, control: p.Control, stamped: ok, handle: cm.FlowID(h)})
	})
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cmClientCfg(e))
	if err != nil {
		t.Fatal(err)
	}
	check := func(phase string, want cm.FlowID) {
		t.Helper()
		data := 0
		for i, s := range log {
			switch {
			case s.control && s.stamped:
				t.Errorf("%s: control segment %d (syn=%v) carries handle %d", phase, i, s.syn, s.handle)
			case !s.control && (!s.stamped || s.handle != want):
				t.Errorf("%s: data segment %d carries handle %d (stamped %v), want %d", phase, i, s.handle, s.stamped, want)
			case !s.control:
				data++
			}
		}
		if data == 0 {
			t.Fatalf("%s: no data segment sent", phase)
		}
	}

	ep.OnEstablished(func(*Endpoint, any) { ep.Send(50_000) })
	e.sched.RunFor(2 * time.Second)
	if len(log) == 0 || !log[0].syn {
		t.Fatal("the connection's first segment was not its SYN")
	}
	first := ep.viaCM.flow
	check("before restart", first)

	log = nil
	e.cm.Restart()
	ep.Send(50_000)
	e.sched.RunFor(2 * time.Second)
	second := ep.viaCM.flow
	if second == first {
		t.Fatalf("the flow was not re-opened under a new handle after the restart: %d", second)
	}
	check("after restart", second)
	if got := e.cm.FlowInfo(second).BytesCharged; got != 50_000 {
		t.Fatalf("the re-opened flow was charged %d bytes, want 50000", got)
	}
}

func TestCMWindowSharedAcrossSequentialConnections(t *testing.T) {
	// The Figure 7 mechanism: a second connection to the same destination
	// starts with the macroflow window learned by the first one.
	e := newEnv(t, wan(0), true)
	sk := listenSink(t, e, 80, nativeCfg())
	ep1, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cmClientCfg(e))
	if err != nil {
		t.Fatal(err)
	}
	ep1.OnEstablished(func(*Endpoint, any) {
		ep1.Send(256 * 1024)
		ep1.Close()
	})
	e.sched.RunFor(20 * time.Second)
	if sk.delivered != 256*1024 {
		t.Fatalf("first transfer delivered %d", sk.delivered)
	}
	var mfWindow int
	for _, id := range []cm.FlowID{0, 1, 2} {
		if mf := e.cm.MacroflowOf(id); mf != nil {
			mfWindow = mf.Window()
		}
	}
	// Even if the flow is closed the macroflow persists; find it by opening a
	// probe flow.
	probe := e.cm.Open(netsim.ProtoTCP, netsim.Addr{Host: "client", Port: 9}, netsim.Addr{Host: "server", Port: 80})
	mfWindow = e.cm.MacroflowOf(probe).Window()
	e.cm.Close(probe)
	if mfWindow <= 2*netsim.DefaultMTU {
		t.Fatalf("macroflow window after a 256 KB transfer should exceed 2 MTU, got %d", mfWindow)
	}

	// Second connection: its congestion window starts at the learned value,
	// not at 1 MTU.
	ep2, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cmClientCfg(e))
	if err != nil {
		t.Fatal(err)
	}
	var initialWindow int
	ep2.OnEstablished(func(*Endpoint, any) { initialWindow = ep2.CongestionWindow() })
	e.sched.RunFor(2 * time.Second)
	if initialWindow != mfWindow {
		t.Fatalf("second connection should inherit the macroflow window: got %d, want %d", initialWindow, mfWindow)
	}
}

func TestTwoConcurrentCMConnectionsShareOneMacroflow(t *testing.T) {
	e := newEnv(t, wan(0), true)
	sk1 := listenSink(t, e, 80, nativeCfg())
	sk2 := listenSink(t, e, 81, nativeCfg())
	mk := func(port, n int) *Endpoint {
		ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: port}, cmClientCfg(e))
		if err != nil {
			t.Fatal(err)
		}
		ep.OnEstablished(func(*Endpoint, any) {
			ep.Send(n)
			ep.Close()
		})
		return ep
	}
	mk(80, 200_000)
	mk(81, 200_000)
	e.sched.RunFor(30 * time.Second)
	if sk1.delivered != 200_000 || sk2.delivered != 200_000 {
		t.Fatalf("delivered %d and %d", sk1.delivered, sk2.delivered)
	}
	if e.cm.MacroflowCount() != 1 {
		t.Fatalf("both connections go to the same host and must share one macroflow, got %d", e.cm.MacroflowCount())
	}
}

func TestStateStringAndSegmentString(t *testing.T) {
	for s := StateClosed; s <= StateTimeWait; s++ {
		if s.String() == "" {
			t.Fatal("state string empty")
		}
	}
	if State(42).String() == "" {
		t.Fatal("unknown state string empty")
	}
	seg := &Segment{Seq: 1, Ack: 2, Len: 3, SYN: true, FIN: true, ACK: true}
	if seg.String() == "" || seg.seqLen() != 5 {
		t.Fatalf("segment helpers wrong: %q %d", seg.String(), seg.seqLen())
	}
	if wireSize(&Segment{Len: 100}) != 100+headerOverhead {
		t.Fatal("wireSize wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CCCM without a CM must panic")
		}
	}()
	s := simtime.NewScheduler()
	h := node.NewHost("x", s)
	newEndpoint(h, netsim.Addr{Host: "x", Port: 1}, netsim.Addr{Host: "y", Port: 2}, Config{CongestionControl: CCCM})
}

func TestSendBeforeEstablishedIsQueued(t *testing.T) {
	e := newEnv(t, lan(), false)
	sk := listenSink(t, e, 80, nativeCfg())
	ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Queue data while the handshake is still in flight.
	ep.Send(50_000)
	ep.Close()
	e.sched.RunFor(5 * time.Second)
	if sk.delivered != 50_000 {
		t.Fatalf("delivered %d, want 50000", sk.delivered)
	}
}

func TestZeroAndNegativeSendIgnored(t *testing.T) {
	e := newEnv(t, lan(), false)
	_, _ = listenSink(t, e, 80, nativeCfg()), 0
	ep, _ := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg())
	ep.Send(0)
	ep.Send(-10)
	if ep.Stats().BytesQueued != 0 {
		t.Fatal("zero/negative sends should not queue data")
	}
}

// Property: for random loss rates and transfer sizes, TCP delivers exactly
// the number of bytes sent, in order, for both congestion control providers.
func TestPropertyReliableDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(sizeKB uint8, lossTenthPct uint8, seed int64, useCM bool) bool {
		n := (int(sizeKB%64) + 1) * 1024
		loss := float64(lossTenthPct%50) / 1000 // 0 - 4.9%
		link := netsim.LinkConfig{
			Bandwidth: 10 * netsim.Mbps, Delay: 20 * time.Millisecond,
			QueuePackets: 60, LossRate: loss, Seed: seed,
		}
		e := newEnvQuiet(link, useCM)
		sk := &sink{}
		if _, err := Listen(e.net.Host("server"), 80, nativeCfg(), func(ep *Endpoint, _ any) {
			sk.ep = ep
			ep.OnReceive(func(_ *Endpoint, _ any, k int) { sk.delivered += int64(k) })
			ep.OnClosed(func(*Endpoint, any) { sk.closed = true })
		}, nil); err != nil {
			return false
		}
		cfg := nativeCfg()
		if useCM {
			cfg = Config{CongestionControl: CCCM, CM: e.cm, DelayedAck: true}
		}
		ep, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cfg)
		if err != nil {
			return false
		}
		ep.OnEstablished(func(*Endpoint, any) {
			ep.Send(n)
			ep.Close()
		})
		e.sched.RunUntil(10 * time.Minute)
		return sk.delivered == int64(n) && sk.closed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newEnvQuiet is newEnv without the testing.T plumbing, for property tests.
func newEnvQuiet(link netsim.LinkConfig, withCM bool) *env {
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	d := nw.ConnectDuplex("client", "server", link)
	e := &env{sched: s, net: nw, duplex: d}
	if withCM {
		e.cm = cm.New(s, s)
		nw.Host("client").SetTransmitNotifier(e.cm)
	}
	return e
}
