package cm

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

func restartAddrs(port int) (netsim.Addr, netsim.Addr) {
	return netsim.Addr{Host: "client", Port: 20000 + port}, netsim.Addr{Host: "server", Port: port}
}

func TestRestartWipesFlowsAndBumpsEpoch(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s, s, WithMTU(1000))
	if c.Epoch() != 0 {
		t.Fatalf("fresh CM epoch = %d", c.Epoch())
	}
	src, dst := restartAddrs(80)
	f := c.Open(netsim.ProtoUDP, src, dst)
	var grants int
	c.RegisterSend(f, func(FlowID) { grants++ })
	c.Request(f)
	if grants != 1 {
		t.Fatalf("grants before restart = %d", grants)
	}

	if wiped := c.Restart(); wiped != 1 {
		t.Fatalf("Restart wiped %d flows, want 1", wiped)
	}
	if c.Epoch() != 1 || c.FlowCount() != 0 || c.MacroflowCount() != 0 {
		t.Fatalf("post-restart state: epoch=%d flows=%d macroflows=%d",
			c.Epoch(), c.FlowCount(), c.MacroflowCount())
	}
	acct := c.Accounting()
	if acct.Restarts != c.Epoch() {
		t.Fatalf("Restarts %d != epoch %d", acct.Restarts, c.Epoch())
	}
}

func TestStaleHandleCallsMissAndAreCounted(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s, s, WithMTU(1000))
	src, dst := restartAddrs(81)
	old := c.Open(netsim.ProtoUDP, src, dst)
	c.Restart()

	// Every API entry point called with the dead handle must be a counted
	// no-op, never a panic or a hit on a new flow.
	c.RegisterSend(old, func(FlowID) { t.Error("grant delivered to a dead handle") })
	c.Request(old)
	c.Notify(old, 100)
	c.Update(old, 100, 100, NoLoss, time.Millisecond)
	c.SetWeight(old, 2)
	if _, ok := c.Query(old); ok {
		t.Fatal("Query succeeded on a dead handle")
	}
	c.Close(old)
	if got := c.Accounting().StaleFlowCalls; got < 6 {
		t.Fatalf("StaleFlowCalls = %d, want >= 6", got)
	}

	// A new flow opened after the restart must get a FlowID the old epoch
	// never saw, so the stale calls above cannot have touched it.
	fresh := c.Open(netsim.ProtoUDP, src, dst)
	if fresh == old {
		t.Fatal("FlowID reused across restart")
	}
	if _, ok := c.Query(fresh); !ok {
		t.Fatal("fresh flow unusable")
	}
}

// A slot freed by Close is reused under the next generation: the first flows
// get the handles 0, 1, 2, and a handle of the closed flow, a negative one and
// one past the table miss and are counted, never reaching the slot's new flow.
func TestClosedHandleMissesAfterSlotReuse(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s, s, WithMTU(1000))
	var ids []FlowID
	for port := 0; port < 3; port++ {
		src, dst := restartAddrs(90 + port)
		ids = append(ids, c.Open(netsim.ProtoUDP, src, dst))
	}
	if ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("first handles %v, want [0 1 2]", ids)
	}
	c.Close(ids[1])
	src, dst := restartAddrs(99)
	reused := c.Open(netsim.ProtoUDP, src, dst)
	if reused == ids[1] || c.FlowCount() != 3 {
		t.Fatalf("reopened into handle %d with %d flows, want a new handle and 3 flows", reused, c.FlowCount())
	}
	c.RegisterSend(reused, func(FlowID) {})
	before := c.Accounting().StaleFlowCalls
	for _, f := range []FlowID{ids[1], InvalidFlow, -1 << 40, 3, 1<<31 - 1} {
		c.Request(f)
	}
	if got := c.Accounting().StaleFlowCalls - before; got != 5 {
		t.Fatalf("stale requests counted %d StaleFlowCalls, want 5", got)
	}
	if fi := c.FlowInfo(reused); fi.ID != reused || fi.GrantsReceived != 0 {
		t.Fatalf("a stale request reached the slot's new flow: %+v", fi)
	}
}

// TestGrantConservationAcrossRestart pins the churn-soak conservation
// invariant at the unit level: issued == reclaimed + outstanding before,
// across and after a restart that strands grants mid-flight.
func TestGrantConservationAcrossRestart(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s, s, WithMTU(1000))
	conserve := func(when string) {
		t.Helper()
		acct, audit := c.Accounting(), c.Audit()
		if acct.GrantsIssued != acct.GrantsReclaimed+int64(audit.OutstandingGrants) {
			t.Fatalf("%s: issued %d != reclaimed %d + outstanding %d",
				when, acct.GrantsIssued, acct.GrantsReclaimed, audit.OutstandingGrants)
		}
	}

	src, dst := restartAddrs(82)
	f := c.Open(netsim.ProtoUDP, src, dst)
	c.RegisterSend(f, func(FlowID) {}) // hold the grant: never claim or decline
	c.Request(f)
	conserve("grant outstanding")

	c.Restart()
	conserve("after restart") // the held grant must be accounted reclaimed

	f2 := c.Open(netsim.ProtoUDP, src, dst)
	c.RegisterSend(f2, func(FlowID) {})
	c.Request(f2)
	c.Notify(f2, 1000)
	conserve("after post-restart traffic")

	audit := c.Audit()
	if audit.NegativePending != 0 || audit.StrandedFlows != 0 {
		t.Fatalf("audit flagged a healthy CM: %+v", audit)
	}
}

func TestMacroflowResetKeepsFlowsButForgetsState(t *testing.T) {
	s := simtime.NewScheduler()
	c := New(s, s, WithMTU(1000))
	src, dst := restartAddrs(83)
	f := c.Open(netsim.ProtoUDP, src, dst)
	// Teach the macroflow some state: full request/claim/feedback cycles so
	// the controller grows the window and learns an RTT estimate.
	c.RegisterSend(f, func(id FlowID) {
		c.Notify(id, 1000)
		c.Update(id, 1000, 1000, NoLoss, 50*time.Millisecond)
	})
	for i := 0; i < 40; i++ {
		c.Request(f)
	}
	before, _ := c.Query(f)
	if before.SRTT == 0 {
		t.Fatal("no RTT learned; test premise broken")
	}
	if before.CWND <= 1000 {
		t.Fatalf("window never grew (CWND %d); test premise broken", before.CWND)
	}

	if n := c.ResetMacroflows("server"); n != 1 {
		t.Fatalf("ResetMacroflows reset %d, want 1", n)
	}
	if c.FlowCount() != 1 {
		t.Fatal("reset must not close flows")
	}
	after, ok := c.Query(f)
	if !ok {
		t.Fatal("flow unusable after reset")
	}
	if after.SRTT != 0 {
		t.Fatalf("SRTT survived the reset: %v", after.SRTT)
	}
	if after.CWND >= before.CWND {
		t.Fatalf("window did not shrink to initial: before %d, after %d", before.CWND, after.CWND)
	}
	if c.Accounting().MacroflowResets != 1 {
		t.Fatalf("MacroflowResets = %d", c.Accounting().MacroflowResets)
	}
	if n := c.ResetMacroflows("elsewhere"); n != 0 {
		t.Fatalf("reset for an unknown host touched %d macroflows", n)
	}
}
