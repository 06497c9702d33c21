package app

import (
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// appEnv is a server/client pair joined by a configurable bottleneck, with a
// CM and libcm on the server (data sender) side.
type appEnv struct {
	sched  *simtime.Scheduler
	net    *node.Network
	cm     *cm.CM
	lib    *libcm.Lib
	duplex *netsim.Duplex
}

func newAppEnv(t *testing.T, link netsim.LinkConfig) *appEnv {
	t.Helper()
	s := simtime.NewScheduler()
	nw := node.NewNetwork(s)
	d := nw.ConnectDuplex("server", "client", link)
	c := cm.New(s, s, cm.WithMTU(1500))
	nw.Host("server").SetTransmitNotifier(c)
	lib := libcm.New(c, s, libcm.ModeAuto)
	return &appEnv{sched: s, net: nw, cm: c, lib: lib, duplex: d}
}

func bottleneck(bw netsim.Bandwidth, delay time.Duration) netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: bw, Delay: delay, QueuePackets: 60, Seed: 17}
}

// ---------------------------------------------------------------------------
// Feedback protocol
// ---------------------------------------------------------------------------

func TestReceiverAcksEveryPacketByDefault(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, 5*time.Millisecond))
	rx, err := NewReceiver(e.net.Host("client"), 6000, FeedbackPolicy{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := udp.NewSocket(e.net.Host("server"), 0)
	var reports []Report
	tx.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		if rep, ok := d.App.(*Report); ok {
			reports = append(reports, *rep)
		}
	})
	for i := 1; i <= 5; i++ {
		tx.SendTo(rx.Addr(), &udp.Datagram{Seq: int64(i), Size: 400})
	}
	e.sched.RunFor(time.Second)
	if len(reports) != 5 {
		t.Fatalf("reports = %d, want 5 (ack every packet)", len(reports))
	}
	last := reports[len(reports)-1]
	if last.TotalPackets != 5 || last.TotalBytes != 2000 || last.HighestSeq != 5 {
		t.Fatalf("final report %+v", last)
	}
	if rx.TotalBytes() != 2000 || rx.TotalPackets() != 5 || rx.ReportsSent() != 5 {
		t.Fatal("receiver counters wrong")
	}
	if rx.RateSeries() == nil {
		t.Fatal("rate series missing")
	}
}

func TestReceiverDelayedFeedbackPolicy(t *testing.T) {
	// Figure 10's policy: report every 500 packets or 2000 ms, whichever
	// comes first. With only 10 packets the timer must flush the report.
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, 5*time.Millisecond))
	rx, err := NewReceiver(e.net.Host("client"), 6001,
		FeedbackPolicy{EveryPackets: 500, MaxDelay: 2 * time.Second}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := udp.NewSocket(e.net.Host("server"), 0)
	var reports int
	tx.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		if _, ok := d.App.(*Report); ok {
			reports++
		}
	})
	for i := 1; i <= 10; i++ {
		tx.SendTo(rx.Addr(), &udp.Datagram{Seq: int64(i), Size: 100})
	}
	e.sched.RunFor(1500 * time.Millisecond)
	if reports != 0 {
		t.Fatalf("no report should be sent before the 2 s delay, got %d", reports)
	}
	e.sched.RunFor(1500 * time.Millisecond)
	if reports != 1 {
		t.Fatalf("exactly one delayed report expected, got %d", reports)
	}
	rx.Close()
}

func TestReceiverCountThresholdTriggersReport(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, time.Millisecond))
	rx, _ := NewReceiver(e.net.Host("client"), 6002, FeedbackPolicy{EveryPackets: 4}, time.Second)
	tx, _ := udp.NewSocket(e.net.Host("server"), 0)
	var reports int
	tx.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		if _, ok := d.App.(*Report); ok {
			reports++
		}
	})
	for i := 1; i <= 8; i++ {
		tx.SendTo(rx.Addr(), &udp.Datagram{Seq: int64(i), Size: 100})
	}
	e.sched.RunFor(time.Second)
	if reports != 2 {
		t.Fatalf("reports = %d, want 2 (every 4 packets)", reports)
	}
}

func TestSenderFeedbackConvertsReports(t *testing.T) {
	s := simtime.NewScheduler()
	type upd struct {
		nsent, nrecd int
		mode         cm.LossMode
		rtt          time.Duration
	}
	var updates []upd
	fb := NewSenderFeedback(s, func(nsent, nrecd int, mode cm.LossMode, rtt time.Duration) {
		updates = append(updates, upd{nsent, nrecd, mode, rtt})
	})

	// Send 3 packets of 1000 bytes; the second is lost.
	fb.OnSend(1, 1000)
	fb.OnSend(2, 1000)
	fb.OnSend(3, 1000)

	// Receiver saw packet 1.
	s.RunUntil(50 * time.Millisecond)
	fb.OnReport(Report{TotalPackets: 1, TotalBytes: 1000, HighestSeq: 1, EchoSentAt: 10 * time.Millisecond})
	// Receiver then saw packet 3 (2 was lost).
	s.RunUntil(100 * time.Millisecond)
	fb.OnReport(Report{TotalPackets: 2, TotalBytes: 2000, HighestSeq: 3, EchoSentAt: 60 * time.Millisecond})

	if len(updates) != 2 {
		t.Fatalf("updates = %d, want 2", len(updates))
	}
	if updates[0].nsent != 1000 || updates[0].nrecd != 1000 || updates[0].mode != cm.NoLoss {
		t.Fatalf("first update %+v", updates[0])
	}
	if updates[0].rtt != 40*time.Millisecond {
		t.Fatalf("rtt = %v, want 40ms", updates[0].rtt)
	}
	// Second report covers packets 2 and 3 (2000 bytes sent) of which 1000
	// arrived: transient loss.
	if updates[1].nsent != 2000 || updates[1].nrecd != 1000 || updates[1].mode != cm.TransientLoss {
		t.Fatalf("second update %+v", updates[1])
	}
	if fb.Updates() != 2 || fb.LossEvents() != 1 {
		t.Fatalf("counters: updates=%d lossEvents=%d", fb.Updates(), fb.LossEvents())
	}
}

func TestSenderFeedbackValidation(t *testing.T) {
	s := simtime.NewScheduler()
	for _, fn := range []func(){
		func() { NewSenderFeedback(nil, func(int, int, cm.LossMode, time.Duration) {}) },
		func() { NewSenderFeedback(s, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	fb := NewSenderFeedback(s, func(int, int, cm.LossMode, time.Duration) {})
	if fb.HandleDatagram(&udp.Datagram{Size: 10}) {
		t.Fatal("non-report datagrams must not be consumed")
	}
	if !fb.HandleDatagram(&udp.Datagram{Size: 10, App: &Report{}}) {
		t.Fatal("report datagrams must be consumed")
	}
}

// ---------------------------------------------------------------------------
// Layered streaming server
// ---------------------------------------------------------------------------

func layeredSetup(t *testing.T, e *appEnv, mode LayeredMode, policy FeedbackPolicy) (*LayeredServer, *LayeredClient) {
	t.Helper()
	client, err := NewLayeredClient(e.net.Host("client"), 7000, policy, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LayeredConfig{
		Mode:       mode,
		Layers:     []float64{31_250, 62_500, 125_000, 250_000}, // 0.25 - 2 Mbps
		PacketSize: 1000,
	}
	srv, err := NewLayeredServer(e.net.Host("server"), e.lib, client.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, client
}

func TestLayeredALFAdaptsToBottleneck(t *testing.T) {
	// 1 Mbps bottleneck (= 125 kB/s): the ALF server should settle around the
	// 125 kB/s layer and its transmission rate must not exceed the link.
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, 20*time.Millisecond))
	srv, client := layeredSetup(t, e, ModeALF, FeedbackPolicy{})
	srv.Start()
	e.sched.RunFor(20 * time.Second)
	srv.Stop()

	if srv.Stats().PacketsSent == 0 || srv.Stats().GrantsReceived == 0 {
		t.Fatalf("server never sent: %+v", srv.Stats())
	}
	linkRate := (1 * netsim.Mbps).BytesPerSecond()
	// Average goodput at the client should be a reasonable fraction of the
	// bottleneck and must not exceed it.
	goodput := float64(client.TotalBytes()) / e.sched.Now().Seconds()
	if goodput > linkRate*1.05 {
		t.Fatalf("goodput %.0f exceeds link rate %.0f", goodput, linkRate)
	}
	if goodput < 0.4*linkRate {
		t.Fatalf("goodput %.0f is too far below the link rate %.0f", goodput, linkRate)
	}
	if srv.ReportedRateSeries().Len() == 0 || srv.LayerRateSeries().Len() == 0 {
		t.Fatal("adaptation traces missing")
	}
	// The steady-state layer should be the one matching the bottleneck
	// (125 kB/s), i.e. index 2.
	if srv.Layer() < 1 || srv.Layer() > 3 {
		t.Fatalf("final layer = %d, expected near the 125 kB/s layer", srv.Layer())
	}
	if srv.Stats().FeedbackReports == 0 {
		t.Fatal("feedback reports never reached the server")
	}
}

func TestLayeredRateCallbackAdaptsViaThresholds(t *testing.T) {
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, 20*time.Millisecond))
	srv, client := layeredSetup(t, e, ModeRateCallback, FeedbackPolicy{})
	srv.Start()
	e.sched.RunFor(20 * time.Second)
	srv.Stop()

	st := srv.Stats()
	if st.PacketsSent == 0 {
		t.Fatal("rate-callback server never sent")
	}
	if st.GrantsReceived != 0 {
		t.Fatal("rate-callback mode must not use the request/callback path")
	}
	if st.RateCallbacks == 0 {
		t.Fatal("no cmapp_update callbacks were delivered")
	}
	goodput := float64(client.TotalBytes()) / e.sched.Now().Seconds()
	linkRate := (1 * netsim.Mbps).BytesPerSecond()
	if goodput > linkRate*1.05 {
		t.Fatalf("goodput %.0f exceeds the link rate", goodput)
	}
	// Self-clocked transmission follows the chosen layer, so the sending
	// rate should be close to one of the configured layers.
	if srv.LayerRateSeries().Len() == 0 {
		t.Fatal("layer trace missing")
	}
}

func TestLayeredALFObservesRateMoreOftenThanRateCallback(t *testing.T) {
	// Figures 8 vs 9 trade-off: the ALF application queries the CM for every
	// packet it sends and so observes (and can react to) many more rate
	// samples, while the rate-callback application is "notified only in the
	// rare event that their network conditions change significantly".
	run := func(mode LayeredMode) (observations int, switches int64) {
		e := newAppEnv(t, bottleneck(2*netsim.Mbps, 20*time.Millisecond))
		srv, _ := layeredSetup(t, e, mode, FeedbackPolicy{})
		cross, err := NewOnOffSource(e.net.Host("server"),
			netsim.Addr{Host: "client", Port: 9999}, 125_000, 1000, 3*time.Second, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cross.Start()
		srv.Start()
		e.sched.RunFor(30 * time.Second)
		srv.Stop()
		cross.Stop()
		return srv.ReportedRateSeries().Len(), srv.Stats().LayerSwitches
	}
	alfObs, alfSwitches := run(ModeALF)
	rcbObs, rcbSwitches := run(ModeRateCallback)
	if alfObs < 10*rcbObs {
		t.Fatalf("ALF should observe the rate far more often than the rate-callback app: %d vs %d", alfObs, rcbObs)
	}
	if alfSwitches == 0 || rcbSwitches == 0 {
		t.Fatalf("both applications should adapt under varying cross traffic (alf=%d rcb=%d)", alfSwitches, rcbSwitches)
	}
}

func TestLayeredServerRequiresLib(t *testing.T) {
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, time.Millisecond))
	if _, err := NewLayeredServer(e.net.Host("server"), nil, netsim.Addr{Host: "client", Port: 1}, LayeredConfig{}); err == nil {
		t.Fatal("nil libcm should be rejected")
	}
	if ModeALF.String() != "alf" || ModeRateCallback.String() != "rate-callback" {
		t.Fatal("mode names wrong")
	}
}

func TestLayeredServerCloseReleasesFlow(t *testing.T) {
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, time.Millisecond))
	srv, _ := layeredSetup(t, e, ModeALF, FeedbackPolicy{})
	srv.Start()
	e.sched.RunFor(time.Second)
	srv.Close()
	if e.cm.FlowCount() != 0 {
		t.Fatal("flow should be closed")
	}
}

// A CM restart re-syncs a libcm application at the restart itself: the
// library drops what named the dead flow and the server re-opens and
// re-requests inside the restart event, with no call of its own in between,
// and keeps streaming well before its grant watchdog would fire.
func TestLayeredServerResyncsAtRestartInstant(t *testing.T) {
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, 20*time.Millisecond))
	srv, _ := layeredSetup(t, e, ModeALF, FeedbackPolicy{})
	srv.Start()
	const at = 2 * time.Second
	var resyncs, restarts int64
	e.sched.At(at, func() {
		e.cm.Restart()
		resyncs, restarts = e.lib.Stats().Resyncs, srv.Stats().Restarts
	})
	e.sched.RunUntil(at)
	if resyncs != 1 || restarts != 1 {
		t.Errorf("at the restart: Resyncs = %d, server Restarts = %d, want 1 and 1", resyncs, restarts)
	}
	grants := srv.Stats().GrantsReceived
	e.sched.RunFor(200 * time.Millisecond)
	if srv.Stats().GrantsReceived == grants || srv.Stats().WatchdogFires != 0 {
		t.Errorf("after the restart: %+v (%d grants before)", srv.Stats(), grants)
	}
}

// ---------------------------------------------------------------------------
// vat interactive audio
// ---------------------------------------------------------------------------

func TestVatSendsNearlyAllFramesWhenBandwidthIsAmple(t *testing.T) {
	// 64 kbps audio over a 10 Mbps link: nothing should need dropping once
	// the window has opened.
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, 10*time.Millisecond))
	rx, err := NewReceiver(e.net.Host("client"), 8000, FeedbackPolicy{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vat, err := NewVatSource(e.net.Host("server"), e.cm, rx.Addr(), VatConfig{DropPolicy: netsim.DropHead})
	if err != nil {
		t.Fatal(err)
	}
	vat.Start()
	e.sched.RunFor(30 * time.Second)
	vat.Stop()
	st := vat.Stats()
	if st.FramesGenerated < 1400 {
		t.Fatalf("frames generated = %d, want ~1500 over 30s of 20ms frames", st.FramesGenerated)
	}
	sentFrac := float64(st.FramesSent) / float64(st.FramesGenerated)
	if sentFrac < 0.9 {
		t.Fatalf("only %.2f of frames were sent on an uncongested path (%+v)", sentFrac, st)
	}
	if rx.TotalPackets() < int64(0.85*float64(st.FramesSent)) {
		t.Fatalf("receiver saw %d of %d sent frames", rx.TotalPackets(), st.FramesSent)
	}
	if vat.AppBufferDepth() > 16 {
		t.Fatal("application buffer exceeded its bound")
	}
}

func TestVatPolicerDropsWhenBandwidthIsScarce(t *testing.T) {
	// 32 kbps bottleneck for a 64 kbps source: roughly half of the frames
	// must be dropped preemptively rather than queued (bounding delay).
	e := newAppEnv(t, bottleneck(32*netsim.Kbps, 20*time.Millisecond))
	rx, err := NewReceiver(e.net.Host("client"), 8001, FeedbackPolicy{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	vat, err := NewVatSource(e.net.Host("server"), e.cm, rx.Addr(), VatConfig{DropPolicy: netsim.DropHead})
	if err != nil {
		t.Fatal(err)
	}
	vat.Start()
	e.sched.RunFor(60 * time.Second)
	vat.Stop()
	st := vat.Stats()
	dropFrac := float64(st.PolicerDrops+st.BufferDrops) / float64(st.FramesGenerated)
	if dropFrac < 0.25 {
		t.Fatalf("adaptation should drop a substantial fraction of frames, dropped %.2f (%+v)", dropFrac, st)
	}
	if st.FramesSent == 0 {
		t.Fatal("some frames must still get through")
	}
	// The application buffer must stay bounded (vat's reason for
	// drop-from-head behaviour).
	if vat.AppBufferDepth() > 16 {
		t.Fatal("application buffer exceeded its bound")
	}
	if st.RateCallbacks == 0 {
		t.Fatal("the policer should have been driven by rate callbacks")
	}
	if vat.SentRateSeries().Len() == 0 {
		t.Fatal("sent-rate trace missing")
	}
}

func TestVatFrameSizeAndAccessors(t *testing.T) {
	cfg := VatConfig{}
	cfg.fillDefaults()
	if cfg.FrameSize() != 160 {
		t.Fatalf("64kbps * 20ms / 8 = 160 bytes, got %d", cfg.FrameSize())
	}
	e := newAppEnv(t, bottleneck(1*netsim.Mbps, time.Millisecond))
	vat, err := NewVatSource(e.net.Host("server"), e.cm, netsim.Addr{Host: "client", Port: 8002}, VatConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if vat.Flow() == cm.InvalidFlow {
		t.Fatal("flow not allocated")
	}
	if vat.PolicerRate() < 0 {
		t.Fatal("policer rate should be non-negative")
	}
	vat.Start()
	vat.Start() // idempotent
	e.sched.RunFor(time.Second)
	vat.Close()
	if e.cm.FlowCount() != 0 {
		t.Fatal("flow should be released on Close")
	}
}

// ---------------------------------------------------------------------------
// Web fetch (Figure 7 workload) and cross traffic
// ---------------------------------------------------------------------------

func TestFileServerAndFetchClient(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, 10*time.Millisecond))
	serverCfg := tcp.Config{CongestionControl: tcp.CCCM, CM: e.cm, DelayedAck: true}
	fs, err := NewFileServer(e.net.Host("server"), 80, 64*1024, serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	client := NewFetchClient(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, 200, tcp.Config{})
	var final []FetchResult
	client.RunSequential(3, 200*time.Millisecond, func(rs []FetchResult) { final = rs })
	e.sched.RunFor(60 * time.Second)

	if len(final) != 3 {
		t.Fatalf("completed %d fetches, want 3", len(final))
	}
	for i, r := range final {
		if r.Bytes != 64*1024 {
			t.Fatalf("fetch %d transferred %d bytes, want %d", i, r.Bytes, 64*1024)
		}
		if r.Elapsed <= 0 || r.End <= r.Start {
			t.Fatalf("fetch %d has invalid timing %+v", i, r)
		}
		if r.Index != i {
			t.Fatalf("result index %d != %d", r.Index, i)
		}
	}
	if fs.RequestsServed() != 3 || fs.BytesServed() != 3*64*1024 {
		t.Fatalf("server counters: %d requests, %d bytes", fs.RequestsServed(), fs.BytesServed())
	}
	// Fetches are sequential: each starts after the previous one ended.
	for i := 1; i < len(final); i++ {
		if final[i].Start < final[i-1].End {
			t.Fatal("fetches overlapped; they must be sequential")
		}
	}
	fs.Close()
}

func TestFetchClientResultsCopy(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, time.Millisecond))
	c := NewFetchClient(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, 0, tcp.Config{})
	if len(c.Results()) != 0 {
		t.Fatal("no results expected before running")
	}
}

func TestOnOffSourceDutyCycle(t *testing.T) {
	e := newAppEnv(t, bottleneck(10*netsim.Mbps, time.Millisecond))
	rx, _ := udp.NewSocket(e.net.Host("client"), 9999)
	var rcvd int64
	rx.OnReceive(func(_ netsim.Addr, d *udp.Datagram) { rcvd += int64(d.Size) })
	src, err := NewOnOffSource(e.net.Host("server"), netsim.Addr{Host: "client", Port: 9999},
		100_000, 1000, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	src.Start() // idempotent
	e.sched.RunFor(10 * time.Second)
	src.Stop()
	// 50% duty cycle at 100 kB/s for 10 s: ~500 kB (give or take phase
	// boundaries).
	if rcvd < 350_000 || rcvd > 650_000 {
		t.Fatalf("cross traffic delivered %d bytes, want ~500000", rcvd)
	}
	if src.PacketsSent() == 0 {
		t.Fatal("PacketsSent should be positive")
	}
	e.sched.RunFor(2 * time.Second)
	after := src.PacketsSent()
	e.sched.RunFor(2 * time.Second)
	if src.PacketsSent() != after {
		t.Fatal("source should stop generating after Stop")
	}
}
