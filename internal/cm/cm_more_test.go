package cm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

func TestThreshControlsUpdateCallbacks(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)

	var reports []Status
	c.RegisterUpdate(f, func(id FlowID, st Status) { reports = append(reports, st) })
	c.Thresh(f, 2.0, 2.0) // only report rate changes of 2x down or 2x up

	// feed simulates a sender that transmits n bytes (charged through the IP
	// hook) and then receives feedback covering them.
	feed := func(n int) {
		c.Notify(f, n)
		c.Update(f, n, n, NoLoss, 100*time.Millisecond)
	}

	// First feedback establishes the baseline (always reported).
	feed(1000)
	if len(reports) != 1 {
		t.Fatalf("first report missing, got %d", len(reports))
	}
	base := reports[0].Rate

	// Small change (window 2000 -> 3000 is 1.5x) stays silent.
	feed(1000)
	if len(reports) != 1 {
		t.Fatalf("sub-threshold change should not be reported, got %d reports", len(reports))
	}

	// Keep growing until the rate at least doubles; a report must arrive.
	for i := 0; i < 10 && len(reports) == 1; i++ {
		feed(2000)
	}
	if len(reports) < 2 {
		t.Fatal("2x rate increase should have triggered a callback")
	}
	if reports[1].Rate < base*2 {
		t.Fatalf("reported rate %v is not >= 2x baseline %v", reports[1].Rate, base)
	}

	// A persistent loss collapses the rate by far more than 2x down.
	n := len(reports)
	c.Update(f, 0, 0, PersistentLoss, 0)
	if len(reports) != n+1 {
		t.Fatal("rate collapse should trigger a callback")
	}
	if reports[n].Rate >= reports[n-1].Rate {
		t.Fatal("collapsed rate should be lower than previous report")
	}
}

func TestThreshRejectsInvalidFactors(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	c.Thresh(f, 0.5, -1) // invalid, keep defaults
	fl := c.slot(f)
	if fl.threshDown != defaultThreshDown || fl.threshUp != defaultThreshUp {
		t.Fatal("invalid thresholds should be ignored")
	}
	c.Thresh(f, 3, 1.5)
	if fl.threshDown != 3 || fl.threshUp != 1.5 {
		t.Fatal("valid thresholds should be stored")
	}
}

func TestSplitFlowIsolatesCongestionState(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src, dst := testAddrs("utah", 80)
	a := c.Open(netsim.ProtoTCP, src, dst)
	b := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 4700}, netsim.Addr{Host: "utah", Port: 81})
	if c.MacroflowOf(a) != c.MacroflowOf(b) {
		t.Fatal("precondition: same macroflow")
	}
	c.SplitFlow(b)
	if c.MacroflowOf(a) == c.MacroflowOf(b) {
		t.Fatal("SplitFlow should move the flow to its own macroflow")
	}
	if c.MacroflowCount() != 2 {
		t.Fatalf("macroflow count = %d, want 2", c.MacroflowCount())
	}
	// Feedback on b no longer affects a's window.
	wa := c.MacroflowOf(a).Window()
	c.Update(b, 5000, 5000, NoLoss, 10*time.Millisecond)
	if c.MacroflowOf(a).Window() != wa {
		t.Fatal("split flows must not share window state")
	}
	// Splitting a flow that is already alone is a no-op.
	before := c.MacroflowCount()
	c.SplitFlow(b)
	if c.MacroflowCount() != before {
		t.Fatal("splitting a singleton flow should not create macroflows")
	}
}

func TestMergeFlowsSharesCongestionState(t *testing.T) {
	_, c := newTestCM(t, WithMTU(1000))
	src1, dst1 := testAddrs("utah", 80)
	src2, dst2 := testAddrs("cmu", 80)
	a := c.Open(netsim.ProtoTCP, src1, dst1)
	b := c.Open(netsim.ProtoTCP, src2, dst2)
	if c.MacroflowOf(a) == c.MacroflowOf(b) {
		t.Fatal("precondition: different macroflows")
	}
	// The paper motivates merging for hosts behind a shared bottleneck.
	c.MergeFlows(a, b)
	if c.MacroflowOf(a) != c.MacroflowOf(b) {
		t.Fatal("MergeFlows should place both flows in one macroflow")
	}
	wa := c.MacroflowOf(a).Window()
	c.Notify(b, 2000)
	c.Update(b, 2000, 2000, NoLoss, 10*time.Millisecond)
	if c.MacroflowOf(a).Window() <= wa {
		t.Fatal("after merging, feedback on either flow grows the shared window")
	}
	// Merging twice or merging unknown flows is harmless.
	c.MergeFlows(a, b)
	c.MergeFlows(a, FlowID(999))
}

func TestGrantExpiresWhenClientNeverTransmits(t *testing.T) {
	s, c := newTestCM(t, WithGrantTimeout(200*time.Millisecond))
	src, dst := testAddrs("utah", 80)
	a := c.Open(netsim.ProtoTCP, src, dst)
	b := c.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 4800}, netsim.Addr{Host: "utah", Port: 81})

	var bGrants int
	c.RegisterSend(a, func(FlowID) { /* misbehaving client: never notifies */ })
	c.RegisterSend(b, func(FlowID) { bGrants++ })

	c.Request(a)
	c.Request(b)
	s.RunFor(50 * time.Millisecond)
	if bGrants != 0 {
		t.Fatal("window should be blocked by a's unclaimed grant at first")
	}
	s.RunFor(500 * time.Millisecond)
	if bGrants != 1 {
		t.Fatalf("after the grant timeout, b should receive a grant; got %d", bGrants)
	}
	if c.MacroflowOf(a).Stats().GrantsReclaimed == 0 {
		t.Fatal("reclaimed grant should be counted")
	}
}

func TestFeedbackStarvationTriggersConservativeRestart(t *testing.T) {
	s, c := newTestCM(t,
		WithMTU(1000),
		WithFeedbackStarvationTimeout(1*time.Second),
		WithGrantTimeout(200*time.Millisecond))
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	mf := c.MacroflowOf(f)

	// Grow the window, then send data whose feedback never arrives.
	for i := 0; i < 5; i++ {
		c.Notify(f, mf.Window())
		c.Update(f, mf.Window(), mf.Window(), NoLoss, 50*time.Millisecond)
	}
	grown := mf.Window()
	if grown <= 2000 {
		t.Fatalf("window should have grown, got %d", grown)
	}
	c.Notify(f, 4000)
	if mf.Outstanding() != 4000 {
		t.Fatal("outstanding not charged")
	}
	s.RunFor(3 * time.Second)
	if mf.Outstanding() != 0 {
		t.Fatal("starvation handler should clear outstanding bytes")
	}
	if mf.Window() >= grown {
		t.Fatalf("starvation handler should shrink the window (%d -> %d)", grown, mf.Window())
	}
	if mf.Stats().IdleRestarts == 0 {
		t.Fatal("idle restart should be counted")
	}
}

func TestWeightedSchedulerApportionsGrants(t *testing.T) {
	s, c := newTestCM(t,
		WithMTU(1000),
		WithInitialWindow(4),
		WithMaxWindow(20_000))
	dst := netsim.Addr{Host: "utah", Port: 80}
	heavy := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 1}, dst)
	light := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 2}, netsim.Addr{Host: "utah", Port: 81})
	c.SetWeight(heavy, 3)
	c.SetWeight(light, 1)

	counts := map[FlowID]int{}
	// The callback transmits immediately; feedback for the transmission comes
	// back one simulated RTT later, as it would from a real receiver.
	onSend := func(id FlowID) {
		counts[id]++
		c.Notify(id, 1000)
		s.After(10*time.Millisecond, func() {
			c.Update(id, 1000, 1000, NoLoss, 10*time.Millisecond)
		})
	}
	c.RegisterSend(heavy, onSend)
	c.RegisterSend(light, onSend)
	// Keep both flows permanently backlogged so the scheduler's weighting,
	// not request availability, decides who is granted.
	for i := 0; i < 5000; i++ {
		c.Request(heavy)
		c.Request(light)
	}
	s.RunFor(500 * time.Millisecond)
	if counts[heavy] < 60 || counts[light] < 10 {
		t.Fatalf("not enough grants to evaluate fairness: %v", counts)
	}
	ratio := float64(counts[heavy]) / float64(counts[light])
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("weighted scheduler ratio = %.2f, want ~3", ratio)
	}
	// Per-flow advertised rate should also respect weights.
	sh, _ := c.Query(heavy)
	sl, _ := c.Query(light)
	if sh.Rate <= sl.Rate {
		t.Fatal("heavier flow should be advertised a larger share")
	}
}

// SetWeight takes finite weights from 1/64 up and ignores the rest, so one
// grant never walks the rotation more than 64 times.
func TestSetWeightRange(t *testing.T) {
	_, c := newTestCM(t)
	src, dst := testAddrs("utah", 80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	for _, w := range []float64{0, -1, 1e-300, 1.0 / 128, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.SetWeight(f, w)
		if got := c.FlowInfo(f).Weight; got != 1 {
			t.Fatalf("SetWeight(%v) changed the weight to %v", w, got)
		}
	}
	for _, w := range []float64{1.0 / 64, 0.5, 3, 1e9} {
		c.SetWeight(f, w)
		if got := c.FlowInfo(f).Weight; got != w {
			t.Fatalf("SetWeight(%v) left the weight at %v", w, got)
		}
	}
	if got := c.MacroflowOf(f).rr.weightSum; got != 1e9 {
		t.Fatalf("weightSum = %v, want 1e9", got)
	}
}

func TestRoundRobinSchedulerFairnessUnderBacklog(t *testing.T) {
	s, c := newTestCM(t, WithMTU(1000), WithInitialWindow(2))
	counts := map[FlowID]int{}
	var flows []FlowID
	for i := 0; i < 4; i++ {
		f := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 100 + i}, netsim.Addr{Host: "utah", Port: 80 + i})
		flows = append(flows, f)
		c.RegisterSend(f, func(id FlowID) {
			counts[id]++
			c.Notify(id, 1000)
			s.After(10*time.Millisecond, func() {
				c.Update(id, 1000, 1000, NoLoss, 10*time.Millisecond)
				c.Request(id)
			})
		})
	}
	for _, f := range flows {
		c.Request(f)
	}
	s.RunFor(time.Second)
	min, max := 1<<30, 0
	for _, f := range flows {
		if counts[f] < min {
			min = counts[f]
		}
		if counts[f] > max {
			max = counts[f]
		}
	}
	if min == 0 {
		t.Fatalf("some flow was starved: %v", counts)
	}
	if float64(max-min) > 0.1*float64(max) {
		t.Fatalf("round-robin shares too uneven: %v", counts)
	}
}

func TestClosePendingFlowDoesNotBlockOthers(t *testing.T) {
	s, c := newTestCM(t, WithMTU(1000))
	dst := netsim.Addr{Host: "utah", Port: 80}
	a := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 1}, dst)
	b := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 2}, netsim.Addr{Host: "utah", Port: 81})
	var bGrants int
	c.RegisterSend(a, func(FlowID) { /* holds its grant */ })
	c.RegisterSend(b, func(FlowID) { bGrants++ })
	c.Request(a)
	c.Request(b)
	s.RunFor(10 * time.Millisecond)
	if bGrants != 0 {
		t.Fatal("precondition: b blocked behind a's grant")
	}
	c.Close(a) // closing must reclaim a's unclaimed grant
	s.RunFor(10 * time.Millisecond)
	if bGrants != 1 {
		t.Fatalf("closing a flow with an unclaimed grant should unblock others, got %d", bGrants)
	}
}

func TestControllerFactoriesDirectly(t *testing.T) {
	cfg := Config{MTU: 1000, InitialWindowMTUs: 2, MaxWindowBytes: 8000}
	aimd := newAIMD(&cfg)
	if aimd.window() != 2000 {
		t.Fatalf("aimd initial window = %d, want 2000", aimd.window())
	}
	for i := 0; i < 20; i++ {
		aimd.onFeedback(Feedback{SentBytes: 8000, ReceivedBytes: 8000, Mode: NoLoss, RTT: time.Millisecond})
	}
	if aimd.window() != 8000 {
		t.Fatalf("window should be capped at MaxWindowBytes, got %d", aimd.window())
	}
	aimd.onIdleRestart()
	if aimd.window() != 2000 {
		t.Fatalf("idle restart should return to initial window, got %d", aimd.window())
	}

	// A zero-value Config gets sane defaults.
	var zero Config
	zero.fillDefaults()
	if w := newAIMD(&zero); w.window() <= 0 {
		t.Fatal("default AIMD window must be positive")
	}
}

func TestSchedulersDirectly(t *testing.T) {
	mk := func(id FlowID, pending int, w float64) *flowState {
		return &flowState{id: id, pendingRequests: pending, weight: w}
	}
	rr := &roundRobin{}
	if rr.next() != nil {
		t.Fatal("empty rotation should return nil")
	}
	a, b, cf := mk(1, 1, 1), mk(2, 1, 1), mk(3, 0, 1)
	rr.add(a)
	rr.add(b)
	rr.add(cf)
	if rr.weightSum != 3 {
		t.Fatalf("weightSum = %v, want 3", rr.weightSum)
	}
	first, second := rr.next(), rr.next()
	if first == second || first == cf || second == cf {
		t.Fatalf("rotation wrong: %v %v", first.id, second.id)
	}
	rr.remove(b)
	rr.remove(mk(99, 0, 1)) // removing an unknown flow is a no-op
	a.pendingRequests = 1
	rr.markEligible(a)
	if rr.next() != a {
		t.Fatal("after removal only a is eligible")
	}

	// The same rotation with weights 3:1.
	w := &roundRobin{}
	h, l := mk(10, 1000, 1), mk(11, 1000, 1) // backlogged throughout
	w.add(h)
	w.add(l)
	w.setWeight(h, 3)
	counts := map[FlowID]int{}
	for i := 0; i < 400; i++ {
		counts[w.next().id]++
	}
	ratio := float64(counts[10]) / float64(counts[11])
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("weighted rotation ratio = %.2f, want ~3", ratio)
	}
	w.remove(h)
	w.remove(l)
	if w.next() != nil || w.weightSum != 0 {
		t.Fatal("emptied rotation should return nil and weigh nothing")
	}
}

// Property: the congestion window is always at least one MTU and never
// exceeds the configured cap, no matter what feedback sequence arrives.
func TestPropertyWindowBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := Config{MTU: 1000, InitialWindowMTUs: 1, MaxWindowBytes: 1 << 20}
		ctrl := newAIMD(&cfg)
		for _, op := range ops {
			mode := LossMode(op % 4)
			n := int(op%3000) * 10
			ctrl.onFeedback(Feedback{SentBytes: n, ReceivedBytes: n, Mode: mode, RTT: time.Millisecond})
			if ctrl.window() < cfg.MTU || ctrl.window() > cfg.MaxWindowBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: outstanding bytes never go negative and grants never exceed the
// window by more than one MTU, under random interleavings of the API.
func TestPropertyMacroflowAccounting(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := simtime.NewScheduler()
		c := New(s, s, WithMTU(1000))
		dst := netsim.Addr{Host: "utah", Port: 80}
		var flows []FlowID
		for i := 0; i < 3; i++ {
			f := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: i}, dst)
			c.RegisterSend(f, func(FlowID) {})
			flows = append(flows, f)
		}
		mf := c.MacroflowOf(flows[0])
		ok := true
		check := func() {
			if mf.Outstanding() < 0 {
				ok = false
			}
			if mf.Window() < 1000 {
				ok = false
			}
		}
		ops := int(nOps)
		for i := 0; i < ops; i++ {
			fl := flows[rng.Intn(len(flows))]
			switch rng.Intn(5) {
			case 0:
				c.Request(fl)
			case 1:
				c.Notify(fl, rng.Intn(3000))
			case 2:
				n := rng.Intn(3000)
				c.Update(fl, n, rng.Intn(n+1), LossMode(rng.Intn(4)), time.Duration(rng.Intn(100))*time.Millisecond)
			case 3:
				c.Query(fl)
			case 4:
				s.RunFor(time.Duration(rng.Intn(50)) * time.Millisecond)
			}
			check()
			if !ok {
				return false
			}
		}
		s.RunFor(5 * time.Second)
		check()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: for flows that always have data, long-run grant counts under the
// round-robin scheduler differ by at most a small factor (fairness).
func TestPropertyRoundRobinFairness(t *testing.T) {
	f := func(nFlows uint8) bool {
		n := int(nFlows%4) + 2
		s := simtime.NewScheduler()
		c := New(s, s, WithMTU(1000), WithInitialWindow(2))
		counts := make(map[FlowID]int)
		for i := 0; i < n; i++ {
			fl := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: i}, netsim.Addr{Host: "utah", Port: 80 + i})
			c.RegisterSend(fl, func(id FlowID) {
				counts[id]++
				c.Notify(id, 1000)
				s.After(10*time.Millisecond, func() {
					c.Update(id, 1000, 1000, NoLoss, 10*time.Millisecond)
					c.Request(id)
				})
			})
			c.Request(fl)
		}
		s.RunFor(500 * time.Millisecond)
		min, max := 1<<30, 0
		for _, v := range counts {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return len(counts) == n && min > 0 && max-min <= 1+max/10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
