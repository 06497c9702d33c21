package udp

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

type udpEnv struct {
	sched *simtime.Scheduler
	net   *node.Network
	cm    *cm.CM
}

func newUDPEnv(t *testing.T, link netsim.LinkConfig) *udpEnv {
	t.Helper()
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	nw.ConnectDuplex("sender", "receiver", link)
	c := cm.New(s, s, cm.WithMTU(1500))
	nw.Host("sender").SetTransmitNotifier(c)
	return &udpEnv{sched: s, net: nw, cm: c}
}

func fastLink() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 5 * time.Millisecond, QueuePackets: 100, Seed: 3}
}

func TestPlainSocketSendReceive(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	rx, err := NewSocket(e.net.Host("receiver"), 5000)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Datagram
	var from netsim.Addr
	rx.OnReceive(func(src netsim.Addr, d *Datagram) { got = append(got, d); from = src })

	tx, err := NewSocket(e.net.Host("sender"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Local().Port == 0 {
		t.Fatal("ephemeral port not allocated")
	}
	for i := 0; i < 5; i++ {
		if !tx.SendTo(netsim.Addr{Host: "receiver", Port: 5000}, &Datagram{Seq: int64(i), Size: 500}) {
			t.Fatal("send failed")
		}
	}
	e.sched.Run()
	if len(got) != 5 {
		t.Fatalf("received %d datagrams, want 5", len(got))
	}
	if got[0].Seq != 0 || got[4].Seq != 4 {
		t.Fatal("datagrams out of order on a FIFO link")
	}
	if from != tx.Local() {
		t.Fatalf("source address = %v, want %v", from, tx.Local())
	}
	if got[0].SentAt != 0 && got[0].SentAt > e.sched.Now() {
		t.Fatal("SentAt timestamp not stamped correctly")
	}
	st := tx.Stats()
	if st.SentPackets != 5 || st.SentBytes != 2500 {
		t.Fatalf("tx stats %+v", st)
	}
	if rx.Stats().RcvdPackets != 5 {
		t.Fatalf("rx stats %+v", rx.Stats())
	}
}

// SendTo stamps both host ids on a datagram, so Output looks no name up; the
// socket resolves a destination name when it changes and never remembers one
// that does not resolve.
func TestSendToStampsHostIDs(t *testing.T) {
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	d := nw.ConnectDuplex("sender", "receiver", fastLink())
	tx, rx := nw.Host("sender"), nw.Host("receiver")
	var stamped [][2]int32
	d.Forward.SetSendTap(func(pkt *netsim.Packet) {
		src, dst := pkt.IDs()
		stamped = append(stamped, [2]int32{src, dst})
	})
	sock, err := NewSocket(tx, 0)
	if err != nil {
		t.Fatal(err)
	}
	to := netsim.Addr{Host: "receiver", Port: 5000}
	sock.SendTo(to, &Datagram{Size: 100})
	if sock.SendTo(netsim.Addr{Host: "nobody", Port: 5000}, &Datagram{Size: 100}) {
		t.Fatal("a datagram to an unknown host went out")
	}
	if sock.peer != "receiver" {
		t.Fatalf("socket remembers %q, want the last name that resolved", sock.peer)
	}
	sock.SendTo(to, &Datagram{Size: 100})
	s.Run()
	want := [2]int32{tx.ID(), rx.ID()}
	if len(stamped) != 2 || stamped[0] != want || stamped[1] != want {
		t.Fatalf("stamped ids %v, want %v twice", stamped, want)
	}
}

func TestSocketValidation(t *testing.T) {
	if _, err := NewSocket(nil, 1); err == nil {
		t.Fatal("nil host should fail")
	}
	e := newUDPEnv(t, fastLink())
	if _, err := NewSocket(e.net.Host("sender"), 53); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSocket(e.net.Host("sender"), 53); err == nil {
		t.Fatal("duplicate bind should fail")
	}
	s, _ := NewSocket(e.net.Host("sender"), 54)
	defer func() {
		if recover() == nil {
			t.Fatal("SendTo(nil) should panic")
		}
	}()
	s.SendTo(netsim.Addr{Host: "receiver", Port: 1}, nil)
}

func TestSocketCloseUnbinds(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	s, err := NewSocket(e.net.Host("sender"), 60)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := NewSocket(e.net.Host("sender"), 60); err != nil {
		t.Fatal("port should be reusable after Close")
	}
}

func TestControlSocketNotChargedToCM(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	// Open a CM flow matching the socket's 5-tuple so charging would happen
	// if the control flag were ignored.
	tx, _ := NewSocket(e.net.Host("sender"), 7000)
	dst := netsim.Addr{Host: "receiver", Port: 7001}
	f := e.cm.Open(netsim.ProtoUDP, tx.Local(), dst)
	tx.MarkControl()
	tx.SendTo(dst, &Datagram{Size: 100})
	e.sched.Run()
	if e.cm.MacroflowOf(f).Outstanding() != 0 {
		t.Fatal("control datagrams must not be charged to the macroflow")
	}
}

func TestPlainSocketChargedToCMWhenFlowRegistered(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	tx, _ := NewSocket(e.net.Host("sender"), 7100)
	dst := netsim.Addr{Host: "receiver", Port: 7101}
	f := e.cm.Open(netsim.ProtoUDP, tx.Local(), dst)
	tx.SendTo(dst, &Datagram{Size: 300})
	// Run only briefly: the CM's feedback-starvation background task would
	// legitimately clear the un-acked charge after a few seconds.
	e.sched.RunFor(100 * time.Millisecond)
	if got := e.cm.MacroflowOf(f).Outstanding(); got != 300 {
		t.Fatalf("outstanding = %d, want 300 (payload bytes)", got)
	}
}

// A CCSocket's data datagrams carry its live CM flow handle to the IP output
// hook, after a CM restart the handle CMRestarted re-opened; a control
// socket's datagrams carry none, even with a flow set.
func TestCCSocketDataCarriesFlowHandle(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, rx := newCCPair(t, e, 100)
	ctl, _ := NewSocket(e.net.Host("sender"), 7200)
	ctl.SetCMFlow(cc.Flow())
	ctl.MarkControl()
	type sent struct {
		port    int
		stamped bool
		handle  cm.FlowID
	}
	var log []sent
	e.net.Host("sender").RouteTo("receiver").SetSendTap(func(p *netsim.Packet) {
		h, ok := p.CMFlow()
		log = append(log, sent{port: p.Src.Port, stamped: ok, handle: cm.FlowID(h)})
	})
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) {
		size := d.Size
		e.sched.After(10*time.Millisecond, func() { cc.Update(size, size, cm.NoLoss, 10*time.Millisecond) })
	})
	check := func(phase string, want cm.FlowID) {
		t.Helper()
		data := 0
		for i, s := range log {
			switch {
			case s.port == ctl.Local().Port && s.stamped:
				t.Errorf("%s: control datagram %d carries handle %d", phase, i, s.handle)
			case s.port == cc.Local().Port && (!s.stamped || s.handle != want):
				t.Errorf("%s: data datagram %d carries handle %d (stamped %v), want %d", phase, i, s.handle, s.stamped, want)
			case s.port == cc.Local().Port:
				data++
			}
		}
		if data != 5 {
			t.Fatalf("%s: %d data datagrams sent, want 5", phase, data)
		}
	}
	send := func() {
		for i := 0; i < 5; i++ {
			cc.Send(&Datagram{Size: 1000})
		}
		ctl.SendTo(rx.Local(), &Datagram{Size: 100})
		e.sched.RunFor(time.Second)
	}

	send()
	first := cc.Flow()
	check("before restart", first)

	log = nil
	e.cm.Restart()
	send()
	second := cc.Flow()
	if second == first {
		t.Fatalf("the flow was not re-opened under a new handle after the restart: %d", second)
	}
	check("after restart", second)
	if got := e.cm.FlowInfo(second).BytesCharged; got != 5000 {
		t.Fatalf("the re-opened flow was charged %d bytes, want 5000", got)
	}
}

func newCCPair(t *testing.T, e *udpEnv, queueLimit int) (*CCSocket, *Socket) {
	t.Helper()
	rx, err := NewSocket(e.net.Host("receiver"), 9000)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCCSocket(e.net.Host("sender"), 0, netsim.Addr{Host: "receiver", Port: 9000}, e.cm, queueLimit)
	if err != nil {
		t.Fatal(err)
	}
	return cc, rx
}

func TestCCSocketRequiresCM(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	if _, err := NewCCSocket(e.net.Host("sender"), 0, netsim.Addr{Host: "receiver", Port: 1}, nil, 10); err == nil {
		t.Fatal("CCSocket without a CM should fail")
	}
}

func TestCCSocketPacesTransmissionsByWindow(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, rx := newCCPair(t, e, 100)
	var received int
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) { received++ })

	// Queue 20 datagrams of one MTU each: with the initial window of 1 MTU
	// and no feedback, only the first can leave.
	for i := 0; i < 20; i++ {
		if !cc.Send(&Datagram{Seq: int64(i), Size: 1472}) {
			t.Fatal("queue drop before limit")
		}
	}
	e.sched.RunFor(100 * time.Millisecond)
	if received != 1 {
		t.Fatalf("received %d datagrams before any feedback, want 1 (initial window)", received)
	}
	if cc.QueueLen() != 19 {
		t.Fatalf("queue length = %d, want 19", cc.QueueLen())
	}

	// Feedback opens the window; more datagrams flow.
	cc.Update(1472, 1472, cm.NoLoss, 10*time.Millisecond)
	e.sched.RunFor(200 * time.Millisecond)
	if received < 2 {
		t.Fatalf("received %d datagrams after feedback, want >= 2", received)
	}
}

func TestCCSocketDeliversAllWithContinuousFeedback(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, rx := newCCPair(t, e, 200)
	var receivedBytes int
	// The receiver acks every datagram immediately (ideal feedback loop).
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) {
		receivedBytes += d.Size
		size := d.Size
		e.sched.After(10*time.Millisecond, func() {
			cc.Update(size, size, cm.NoLoss, 10*time.Millisecond)
		})
	})
	const n = 150
	for i := 0; i < n; i++ {
		cc.Send(&Datagram{Seq: int64(i), Size: 1000})
	}
	e.sched.RunFor(30 * time.Second)
	if receivedBytes != n*1000 {
		t.Fatalf("received %d bytes, want %d", receivedBytes, n*1000)
	}
	st := cc.Stats()
	if st.Sent != n || st.Enqueued != n || st.QueueDrops != 0 {
		t.Fatalf("cc stats %+v", st)
	}
	if cc.QueueLen() != 0 {
		t.Fatal("queue should drain completely")
	}
}

func TestCCSocketQueueOverflowDropsTail(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 5)
	accepted := 0
	for i := 0; i < 10; i++ {
		if cc.Send(&Datagram{Seq: int64(i), Size: 1000}) {
			accepted++
		}
	}
	// One datagram leaves immediately on the initial window grant, so six are
	// accepted in total (5 queued + 1 in flight) and four are dropped.
	if accepted < 5 || accepted > 6 {
		t.Fatalf("accepted %d datagrams with a 5-deep queue, want 5-6", accepted)
	}
	if cc.Stats().QueueDrops != int64(10-accepted) {
		t.Fatalf("QueueDrops = %d", cc.Stats().QueueDrops)
	}
}

func TestCCSocketOnSpaceCallback(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 10)
	var spaces int
	cc.OnSpace(func() { spaces++ })
	cc.Send(&Datagram{Size: 500})
	e.sched.RunFor(50 * time.Millisecond)
	if spaces != 1 {
		t.Fatalf("OnSpace callbacks = %d, want 1", spaces)
	}
}

func TestCCSocketQueryAndFlow(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 10)
	if cc.Flow() == cm.InvalidFlow {
		t.Fatal("flow not allocated")
	}
	st, ok := cc.Query()
	if !ok || st.MTU != 1500 {
		t.Fatalf("Query = %+v, %v", st, ok)
	}
	if cc.Local().Host != "sender" {
		t.Fatal("local address wrong")
	}
	if cc.Inner() == nil {
		t.Fatal("inner socket accessor wrong")
	}
}

func TestCCSocketCloseReleasesFlow(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 10)
	cc.Send(&Datagram{Size: 100})
	cc.Close()
	if e.cm.FlowCount() != 0 {
		t.Fatal("flow should be closed")
	}
	if cc.Send(&Datagram{Size: 100}) {
		t.Fatal("send after close should fail")
	}
	cc.Close() // double close is a no-op
	e.sched.RunFor(time.Second)
}

func TestCCSocketSharesMacroflowWithTCPFlows(t *testing.T) {
	// The point of the CM: a UDP flow and any other flow to the same
	// destination host share one macroflow.
	e := newUDPEnv(t, fastLink())
	cc, _ := newCCPair(t, e, 10)
	other := e.cm.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 1234}, netsim.Addr{Host: "receiver", Port: 80})
	if e.cm.MacroflowOf(cc.Flow()) != e.cm.MacroflowOf(other) {
		t.Fatal("UDP and TCP flows to the same host must share a macroflow")
	}
}

// A CM restart wipes the socket's flow and its outstanding request. The CM
// tells the socket, which re-opens and, with datagrams still queued, requests
// again at once: it keeps sending, without a call of its own to wake it.
func TestCCSocketKeepsSendingAfterCMRestart(t *testing.T) {
	e := newUDPEnv(t, fastLink())
	cc, rx := newCCPair(t, e, 20)
	rx.OnReceive(func(_ netsim.Addr, d *Datagram) {
		size := d.Size
		e.sched.After(10*time.Millisecond, func() {
			cc.Update(size, size, cm.NoLoss, 10*time.Millisecond)
		})
	})
	refill := func() {
		for cc.QueueLen() < 20 {
			cc.Send(&Datagram{Size: 1000})
		}
	}
	cc.OnSpace(refill)
	refill()
	e.sched.RunFor(2 * time.Second)
	before := cc.Stats().Sent
	if before == 0 {
		t.Fatal("nothing sent before the restart")
	}
	old := cc.Flow()
	e.cm.Restart()
	if cc.Flow() == old || e.cm.FlowCount() != 1 {
		t.Errorf("flow not re-opened at the restart: %d (old %d), %d open", cc.Flow(), old, e.cm.FlowCount())
	}
	e.sched.RunFor(2 * time.Second)
	if after := cc.Stats().Sent - before; after < before/2 {
		t.Fatalf("sent %d datagrams in the 2 s after the restart, %d in the 2 s before", after, before)
	}
}
