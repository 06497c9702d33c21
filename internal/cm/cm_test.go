package cm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

func testAddrs(dstHost string, port int) (src, dst netsim.Addr) {
	return netsim.Addr{Host: "sender", Port: 4000 + port}, netsim.Addr{Host: dstHost, Port: port}
}

func newTestCM(t *testing.T, opts ...Option) (*simtime.Scheduler, *CM) {
	t.Helper()
	s := simtime.NewScheduler()
	c := New(s, s, opts...)
	return s, c
}

func TestNewRequiresClockAndTimers(t *testing.T) {
	s := simtime.NewScheduler()
	for _, fn := range []func(){
		func() { New(nil, s) },
		func() { New(s, nil) },
		func() { New(s, simtime.NewScheduler()) },
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
}

func TestDefaultsFilled(t *testing.T) {
	_, c := newTestCM(t)
	cfg := c.Config()
	if cfg.MTU != netsim.DefaultMTU {
		t.Fatalf("MTU default = %d", cfg.MTU)
	}
	if cfg.InitialWindowMTUs != 1 {
		t.Fatalf("InitialWindowMTUs default = %d", cfg.InitialWindowMTUs)
	}
	if cfg.GrantTimeout <= 0 || cfg.FeedbackStarvationTimeout <= 0 {
		t.Fatal("timeouts not defaulted")
	}
	fl := c.slot(c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 1}, netsim.Addr{Host: "d", Port: 1}))
	if fl.threshDown <= 1 || fl.threshUp <= 1 {
		t.Fatal("thresholds not defaulted")
	}
}

func TestOpenAssignsFlowsToPerDestinationMacroflows(t *testing.T) {
	_, c := newTestCM(t)
	s1, d1 := testAddrs("utah", 80)
	s2, d2 := testAddrs("utah", 8080)
	s3, d3 := testAddrs("cmu", 80)

	f1 := c.Open(netsim.ProtoTCP, s1, d1)
	f2 := c.Open(netsim.ProtoTCP, s2, d2)
	f3 := c.Open(netsim.ProtoTCP, s3, d3)

	if f1 == f2 || f2 == f3 || f1 == f3 {
		t.Fatal("flow IDs must be distinct")
	}
	if c.MacroflowOf(f1) != c.MacroflowOf(f2) {
		t.Fatal("flows to the same destination host must share a macroflow")
	}
	if c.MacroflowOf(f1) == c.MacroflowOf(f3) {
		t.Fatal("flows to different hosts must not share a macroflow")
	}
	if c.FlowCount() != 3 || c.MacroflowCount() != 2 {
		t.Fatalf("counts = %d flows, %d macroflows", c.FlowCount(), c.MacroflowCount())
	}
	if c.MacroflowOf(f1).DstHost() != "utah" {
		t.Fatal("macroflow destination wrong")
	}
}

func TestOpenIsIdempotentForSameTuple(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	a := c.Open(netsim.ProtoTCP, src, dst)
	b := c.Open(netsim.ProtoTCP, src, dst)
	if a != b {
		t.Fatal("re-opening the same tuple should return the same flow ID")
	}
	if c.FlowCount() != 1 {
		t.Fatal("no duplicate flow state should be created")
	}
}

func TestLookupFindsFlowByKey(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	key := netsim.FlowKey{Proto: netsim.ProtoUDP, Src: src, Dst: dst}
	if got := c.Lookup(key); got != f {
		t.Fatalf("Lookup = %v, want %v", got, f)
	}
	if c.Lookup(key.Reverse()) != InvalidFlow {
		t.Fatal("reverse key should not resolve")
	}
	c.Close(f)
	if c.Lookup(key) != InvalidFlow {
		t.Fatal("closed flow should not resolve")
	}
}

func TestCloseRetainsMacroflowState(t *testing.T) {
	s, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)
	mf := c.MacroflowOf(f)

	// Grow the window with some successful feedback.
	c.RegisterSend(f, func(FlowID) {})
	for i := 0; i < 10; i++ {
		c.Request(f)
		c.Notify(f, 1500)
		c.Update(f, 1500, 1500, NoLoss, 60*time.Millisecond)
	}
	s.Run()
	grown := mf.Window()
	if grown <= c.Config().MTU {
		t.Fatalf("window did not grow: %d", grown)
	}

	c.Close(f)
	if c.FlowCount() != 0 {
		t.Fatal("flow should be removed")
	}
	if c.MacroflowCount() != 1 {
		t.Fatal("macroflow state must persist after the flow closes (Figure 7 behaviour)")
	}

	// A new flow to the same destination inherits the learned window.
	f2 := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 5000}, dst)
	if c.MacroflowOf(f2).Window() != grown {
		t.Fatalf("new flow window = %d, want inherited %d", c.MacroflowOf(f2).Window(), grown)
	}
	if c.MacroflowOf(f2) != mf {
		t.Fatal("new flow should join the persisted macroflow")
	}
}

func TestMTUQuery(t *testing.T) {
	_, c := newTestCM(t, WithMTU(576))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)
	if c.MTU(f) != 576 {
		t.Fatalf("MTU = %d, want 576", c.MTU(f))
	}
	if c.MTU(FlowID(999)) != 576 {
		t.Fatal("MTU of unknown flow should fall back to the default")
	}
}

func TestRequestGrantsWithinInitialWindow(t *testing.T) {
	s, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)

	var grants []FlowID
	c.RegisterSend(f, func(id FlowID) { grants = append(grants, id) })

	// With an initial window of 1 MTU, only the first request is granted
	// before any transmission is charged.
	c.Request(f)
	c.Request(f)
	s.RunFor(10 * time.Millisecond)
	if len(grants) != 1 || grants[0] != f {
		t.Fatalf("grants = %v, want exactly one for flow %v", grants, f)
	}

	// Charging a full MTU keeps the window closed; feedback reopens it.
	c.Notify(f, 1500)
	s.RunFor(10 * time.Millisecond)
	if len(grants) != 1 {
		t.Fatalf("window should stay closed after charging a full MTU, grants=%d", len(grants))
	}
	c.Update(f, 1500, 1500, NoLoss, 60*time.Millisecond)
	s.RunFor(10 * time.Millisecond)
	if len(grants) != 2 {
		t.Fatalf("feedback should release the second grant, grants=%d", len(grants))
	}
}

func TestRequestWithoutCallbackDoesNotWedgeMacroflow(t *testing.T) {
	s, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst) // no RegisterSend
	g := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 4100}, netsim.Addr{Host: "utah", Port: 81})
	var got int
	c.RegisterSend(g, func(FlowID) { got++ })

	c.Request(f) // grant cannot be delivered; must be reclaimed immediately
	c.Request(g)
	s.RunFor(10 * time.Millisecond)
	if got != 1 {
		t.Fatalf("flow with callback got %d grants, want 1", got)
	}
}

func TestNotifyZeroReleasesWindowToOtherFlows(t *testing.T) {
	s, c := newTestCM(t)
	srcA, dst := testAddrs("utah", 80)
	a := c.Open(netsim.ProtoTCP, srcA, dst)
	b := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 4200}, netsim.Addr{Host: "utah", Port: 81})

	var events []FlowID
	declined := false
	c.RegisterSend(a, func(id FlowID) {
		events = append(events, id)
		if !declined {
			declined = true
			// Decline the grant: the client must call cm_notify with 0.
			c.Notify(a, 0)
		}
	})
	c.RegisterSend(b, func(id FlowID) { events = append(events, id) })

	c.Request(a)
	c.Request(b)
	s.RunFor(10 * time.Millisecond)

	if len(events) != 2 || events[0] != a || events[1] != b {
		t.Fatalf("events = %v, want [a b]: declining a grant must let the next flow send", events)
	}
}

func TestGrantOrderIsRoundRobinAcrossFlows(t *testing.T) {
	s, c := newTestCM(t, WithInitialWindow(64), WithMTU(1000))
	dstHost := "utah"
	var order []FlowID
	var flows []FlowID
	for i := 0; i < 3; i++ {
		src := netsim.Addr{Host: "sender", Port: 4000 + i}
		dst := netsim.Addr{Host: dstHost, Port: 80 + i}
		f := c.Open(netsim.ProtoTCP, src, dst)
		flows = append(flows, f)
		c.RegisterSend(f, func(id FlowID) {
			order = append(order, id)
			c.Notify(id, 1000)
		})
	}
	// Queue 3 requests per flow up front; the window (64 MTUs) is large
	// enough to grant all of them immediately.
	for round := 0; round < 3; round++ {
		for _, f := range flows {
			c.Request(f)
		}
	}
	s.RunFor(10 * time.Millisecond)
	if len(order) != 9 {
		t.Fatalf("granted %d, want 9", len(order))
	}
	for i, id := range order {
		if id != flows[i%3] {
			t.Fatalf("grant order %v is not round-robin over %v", order, flows)
		}
	}
}

func TestWindowGrowthSlowStartAndCongestionAvoidance(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)
	mf := c.MacroflowOf(f)

	if mf.Window() != 1000 {
		t.Fatalf("initial window = %d, want 1000", mf.Window())
	}
	if !mf.ctrl.inSlowStart() {
		t.Fatal("controller should start in slow start")
	}

	// Slow start: acking W bytes roughly doubles the window each "round".
	c.Notify(f, 1000)
	c.Update(f, 1000, 1000, NoLoss, 10*time.Millisecond)
	if mf.Window() != 2000 {
		t.Fatalf("after acking 1 MTU in slow start window = %d, want 2000", mf.Window())
	}
	c.Notify(f, 2000)
	c.Update(f, 2000, 2000, NoLoss, 10*time.Millisecond)
	if mf.Window() != 4000 {
		t.Fatalf("window = %d, want 4000", mf.Window())
	}

	// Transient loss halves the window and leaves slow start.
	c.Update(f, 0, 0, TransientLoss, 0)
	if got := mf.Window(); got != 2000 {
		t.Fatalf("window after transient loss = %d, want 2000", got)
	}
	if mf.ctrl.inSlowStart() {
		t.Fatal("transient loss should exit slow start")
	}

	// Congestion avoidance: acking one window grows the window by ~1 MTU.
	before := mf.Window()
	c.Notify(f, before)
	c.Update(f, before, before, NoLoss, 10*time.Millisecond)
	growth := mf.Window() - before
	if growth < 900 || growth > 1100 {
		t.Fatalf("congestion-avoidance growth = %d, want ~1 MTU", growth)
	}
}

func TestPersistentLossCollapsesToInitialWindow(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)
	mf := c.MacroflowOf(f)

	for i := 0; i < 6; i++ {
		c.Notify(f, mf.Window())
		c.Update(f, mf.Window(), mf.Window(), NoLoss, 10*time.Millisecond)
	}
	if mf.Window() < 8000 {
		t.Fatalf("window should have grown, got %d", mf.Window())
	}
	c.Notify(f, 3000)
	c.Update(f, 0, 0, PersistentLoss, 0)
	if mf.Window() != 1000 {
		t.Fatalf("persistent loss should collapse window to 1 MTU, got %d", mf.Window())
	}
	if mf.Outstanding() != 0 {
		t.Fatalf("persistent loss should clear outstanding, got %d", mf.Outstanding())
	}
	if mf.Stats().PersistentSignals != 1 {
		t.Fatal("persistent signal not counted")
	}
}

func TestECNTreatedAsCongestionWithoutLoss(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoTCP, src, dst)
	mf := c.MacroflowOf(f)
	for i := 0; i < 4; i++ {
		c.Notify(f, mf.Window())
		c.Update(f, mf.Window(), mf.Window(), NoLoss, 10*time.Millisecond)
	}
	before := mf.Window()
	c.Update(f, 1000, 1000, ECNLoss, 10*time.Millisecond)
	after := mf.Window()
	if after >= before {
		t.Fatalf("ECN should reduce the window (%d -> %d)", before, after)
	}
	if mf.Stats().ECNSignals != 1 {
		t.Fatal("ECN signal not counted")
	}
	// ECN must not count as byte loss.
	if mf.LossRate() != 0 {
		t.Fatalf("ECN should not raise the loss estimate, got %v", mf.LossRate())
	}
}

func TestSharedRTTEstimation(t *testing.T) {
	_, c := newTestCM(t)
	src1, dst1 := testAddrs("utah", 80)
	f1 := c.Open(netsim.ProtoTCP, src1, dst1)
	f2 := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 4500}, netsim.Addr{Host: "utah", Port: 81})
	mf := c.MacroflowOf(f1)

	c.Update(f1, 1000, 1000, NoLoss, 100*time.Millisecond)
	if mf.SRTT() != 100*time.Millisecond {
		t.Fatalf("first sample should initialise srtt, got %v", mf.SRTT())
	}
	if mf.RTTVar() != 50*time.Millisecond {
		t.Fatalf("first sample should set rttvar to rtt/2, got %v", mf.RTTVar())
	}
	// A sample from the second flow of the same macroflow moves the shared
	// estimate (paper: the CM combines samples from different connections).
	c.Update(f2, 1000, 1000, NoLoss, 200*time.Millisecond)
	if mf.SRTT() <= 100*time.Millisecond {
		t.Fatal("sample from second flow should raise the shared srtt")
	}
	st, ok := c.Query(f2)
	if !ok || st.SRTT != mf.SRTT() {
		t.Fatal("Query should report the shared srtt")
	}
}

func TestLossRateEstimate(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	mf := c.MacroflowOf(f)
	// 50% loss reported repeatedly converges toward 0.5.
	for i := 0; i < 50; i++ {
		c.Update(f, 2000, 1000, TransientLoss, 50*time.Millisecond)
	}
	if lr := mf.LossRate(); lr < 0.4 || lr > 0.6 {
		t.Fatalf("loss estimate = %v, want ~0.5", lr)
	}
}

func TestQueryReportsRateFromWindowAndRTT(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	mf := c.MacroflowOf(f)

	// Window 4000 bytes, RTT 100ms -> 40 KB/s.
	for mf.Window() < 4000 {
		c.Notify(f, mf.Window())
		c.Update(f, mf.Window(), mf.Window(), NoLoss, 100*time.Millisecond)
	}
	st, ok := c.Query(f)
	if !ok {
		t.Fatal("Query failed")
	}
	wantRate := float64(mf.Window()) / 0.1
	if st.MacroflowRate < wantRate*0.9 || st.MacroflowRate > wantRate*1.1 {
		t.Fatalf("MacroflowRate = %v, want ~%v", st.MacroflowRate, wantRate)
	}
	if st.Rate != st.MacroflowRate {
		t.Fatal("single flow should receive the whole macroflow rate")
	}
	if st.CWND != mf.Window() || st.MTU != 1000 {
		t.Fatalf("Status = %+v", st)
	}
	if _, ok := c.Query(FlowID(404)); ok {
		t.Fatal("Query of unknown flow should fail")
	}
}

func TestRateApportionedAcrossFlows(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f1 := c.Open(netsim.ProtoUDP, src, dst)
	f2 := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "sender", Port: 4600}, netsim.Addr{Host: "utah", Port: 81})
	c.Update(f1, 1500, 1500, NoLoss, 100*time.Millisecond)
	st1, _ := c.Query(f1)
	st2, _ := c.Query(f2)
	if st1.MacroflowRate != st2.MacroflowRate {
		t.Fatal("flows of the same macroflow must see the same aggregate rate")
	}
	if st1.Rate != st1.MacroflowRate/2 || st2.Rate != st2.MacroflowRate/2 {
		t.Fatalf("per-flow rate should be half the aggregate, got %v and %v of %v",
			st1.Rate, st2.Rate, st1.MacroflowRate)
	}
}

func TestUnknownFlowCallsAreNoOps(t *testing.T) {
	_, c := newTestCM(t)
	// None of these should panic or create state.
	c.Request(42)
	c.Notify(42, 100)
	c.Update(42, 1, 1, NoLoss, time.Millisecond)
	c.Thresh(42, 2, 2)
	c.RegisterSend(42, func(FlowID) {})
	c.RegisterUpdate(42, func(FlowID, Status) {})
	c.SetWeight(42, 2)
	c.SetDispatcher(42, DirectDispatcher())
	c.Close(42)
	if c.FlowCount() != 0 || c.MacroflowCount() != 0 {
		t.Fatal("no state should be created for unknown flows")
	}
	if c.FlowInfo(42).ID != InvalidFlow {
		t.Fatal("FlowInfo of unknown flow should be invalid")
	}
}

func TestLossModeString(t *testing.T) {
	names := map[LossMode]string{NoLoss: "none", TransientLoss: "transient", PersistentLoss: "persistent", ECNLoss: "ecn"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if LossMode(77).String() == "" {
		t.Error("unknown mode should still format")
	}
}

func TestNotifyTransmitHookChargesCorrectFlow(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	key := netsim.FlowKey{Proto: netsim.ProtoUDP, Src: src, Dst: dst}
	c.NotifyTransmit(key, 700)
	if c.MacroflowOf(f).Outstanding() != 700 {
		t.Fatalf("outstanding = %d, want 700", c.MacroflowOf(f).Outstanding())
	}
	// Unmanaged flows are ignored.
	c.NotifyTransmit(netsim.FlowKey{Proto: netsim.ProtoUDP, Src: src, Dst: netsim.Addr{Host: "elsewhere", Port: 1}}, 700)
	if c.MacroflowOf(f).Outstanding() != 700 {
		t.Fatal("unmanaged transmissions must not be charged")
	}
	if c.FlowInfo(f).BytesCharged != 700 {
		t.Fatal("FlowInfo should reflect charged bytes")
	}
}

// A packet stamped with a flow handle is charged to that flow by handle; one
// stamped before a Restart charges nothing, not even a StaleFlowCalls, while
// an unstamped packet with the same key reaches the re-opened flow by key.
func TestNotifyPacketStaleStampChargesNothing(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	old := c.Open(netsim.ProtoTCP, src, dst)
	stamped := func(f FlowID) *netsim.Packet {
		p := &netsim.Packet{Proto: netsim.ProtoTCP, Src: src, Dst: dst}
		p.SetCMFlow(int64(f))
		return p
	}
	c.NotifyPacket(stamped(old), 700)
	if got := c.FlowInfo(old).BytesCharged; got != 700 {
		t.Fatalf("stamped packet charged %d bytes, want 700", got)
	}

	c.Restart()
	fresh := c.Open(netsim.ProtoTCP, src, dst)
	stale := c.Accounting().StaleFlowCalls
	c.NotifyPacket(stamped(old), 500)
	if got := c.FlowInfo(fresh).BytesCharged; got != 0 {
		t.Fatalf("a pre-restart stamp charged the re-opened flow %d bytes", got)
	}
	if got := c.Accounting().StaleFlowCalls; got != stale {
		t.Fatalf("a stale stamp counted %d StaleFlowCalls, want none", got-stale)
	}

	c.NotifyPacket(&netsim.Packet{Proto: netsim.ProtoTCP, Src: src, Dst: dst}, 300)
	c.NotifyPacket(stamped(fresh), 200)
	if got := c.FlowInfo(fresh).BytesCharged; got != 500 {
		t.Fatalf("re-opened flow charged %d bytes by key and stamp, want 500", got)
	}
}

// BulkRequest pumps the macroflows it touches in the order the list first
// names them, and allocates nothing doing so.
func TestBulkRequestPumpsInFirstTouchOrder(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		_, c := newTestCM(t)
		sa, da := testAddrs("utah", 80)
		sb, db := testAddrs("mit", 80)
		a := c.Open(netsim.ProtoUDP, sa, da)
		b := c.Open(netsim.ProtoUDP, sb, db)
		var order []FlowID
		for _, f := range []FlowID{a, b} {
			c.RegisterSend(f, func(f FlowID) { order = append(order, f) })
		}
		c.BulkRequest([]FlowID{b, a})
		if len(order) != 2 || order[0] != b || order[1] != a {
			t.Fatalf("repetition %d: grants went to %v, want [%d %d] (b, a)", rep, order, b, a)
		}
	}

	// Sixteen macroflows, twice as many as a map the compiler may keep on the
	// stack holds.
	_, c := newTestCM(t)
	var flows []FlowID
	for i := 0; i < 32; i++ {
		src, d := testAddrs(fmt.Sprint("d", i%16), 80+i)
		f := c.Open(netsim.ProtoUDP, src, d)
		c.RegisterSend(f, func(f FlowID) { c.Notify(f, 0) })
		flows = append(flows, f)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.BulkRequest(flows) }); allocs != 0 {
		t.Fatalf("BulkRequest allocated %.1f objects per call, want 0", allocs)
	}
}

// Rate callbacks go out in the order the flows were opened: a dispatcher that
// draws randomness per callback (libcm's fault injector) must see the same
// sequence every run.
func TestRateCallbacksDeliveredInOpenOrder(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		_, c := newTestCM(t)
		var opened, order []FlowID
		for port := 80; port < 83; port++ {
			src, dst := testAddrs("utah", port)
			f := c.Open(netsim.ProtoUDP, src, dst)
			c.RegisterUpdate(f, func(f FlowID, _ Status) { order = append(order, f) })
			opened = append(opened, f)
		}
		c.Update(opened[0], 1000, 1000, NoLoss, 10*time.Millisecond)
		if len(order) != 3 || order[0] != opened[0] || order[1] != opened[1] || order[2] != opened[2] {
			t.Fatalf("repetition %d: rate callbacks in order %v, want Open order %v", rep, order, opened)
		}
	}

	// A callback that closes its own flow does not cost the next flow its
	// callback.
	_, c := newTestCM(t)
	var opened, order []FlowID
	for port := 80; port < 83; port++ {
		src, dst := testAddrs("utah", port)
		f := c.Open(netsim.ProtoUDP, src, dst)
		c.RegisterUpdate(f, func(f FlowID, _ Status) {
			order = append(order, f)
			if f == opened[0] {
				c.Close(f)
			}
		})
		opened = append(opened, f)
	}
	c.Update(opened[1], 1000, 1000, NoLoss, 10*time.Millisecond)
	if len(order) != 3 || order[0] != opened[0] || order[1] != opened[1] || order[2] != opened[2] {
		t.Fatalf("with the first flow closing itself: rate callbacks %v, want %v", order, opened)
	}
}

func TestAccountingCounters(t *testing.T) {
	s, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	c.RegisterSend(f, func(FlowID) {})
	c.Request(f)
	c.Notify(f, 100)
	c.Update(f, 100, 100, NoLoss, time.Millisecond)
	c.Query(f)
	c.BulkRequest([]FlowID{f})
	c.BulkUpdate([]UpdateArgs{{Flow: f, Sent: 10, Received: 10}})
	c.Close(f)
	s.Run()
	a := c.Accounting()
	if a.Opens != 1 || a.Closes != 1 || a.Requests != 1 || a.Notifies != 1 ||
		a.Updates != 1 || a.Queries != 1 || a.BulkRequests != 1 || a.BulkUpdates != 1 {
		t.Fatalf("accounting = %+v", a)
	}
	if a.GrantsIssued == 0 {
		t.Fatal("grants should be counted")
	}
	if a.Total() != 8 {
		t.Fatalf("Total = %d, want 8", a.Total())
	}
}
