package cm

import (
	"slices"
	"sort"

	"repro/internal/netsim"
)

// This file implements the host-level fault surface of the CM: process
// restart (crash of the in-kernel module or its host), macroflow state
// discard on address change, and the Audit snapshot the churn-soak invariant
// checker runs against. The paper argues the CM keeps applications
// well-behaved when the network misbehaves; these entry points let scenarios
// misbehave at the host too.

// Epoch returns the CM's restart epoch: zero at creation, incremented by
// every Restart. Results report it, and the invariant checker holds it equal
// to the restart count; clients learn of a restart from CMRestarted instead.
func (cm *CM) Epoch() int64 { return cm.epoch }

// RestartListener is a client that hears of a Restart. After the wipe the CM
// calls CMRestarted once on each distinct client that held a live flow: the
// dispatcher of a flow with its own dispatcher (libcm), the Sender of a flow
// with the direct one (in-kernel TCP, the CM_BUF UDP socket). The client's
// handles are dead by then, so it re-opens, re-registers and re-requests
// inside the call.
type RestartListener interface {
	CMRestarted()
}

// Restart models the CM process dying and coming back empty: every flow,
// macroflow, rotation and grant is discarded and the epoch is bumped.
// Every slot of the flow table moves on a generation (handles from the
// previous epoch must never be reissued, so stale calls miss instead of
// corrupting a new flow). Learned congestion state is lost — exactly the cost
// of crashing the shared controller. Then the flows' clients are told, in
// flow-slot order, so none waits for a grant the wipe took. Returns the
// number of flows wiped.
func (cm *CM) Restart() int {
	cm.acct.Restarts++
	cm.epoch++
	wiped := cm.FlowCount()
	var clients []RestartListener
	for _, s := range cm.flows {
		if s.fl == nil {
			continue
		}
		var client any = s.fl.dispatcher
		if _, direct := client.(directDispatcher); direct {
			client = s.fl.sender
		}
		if c, ok := client.(RestartListener); ok && !slices.Contains(clients, c) {
			clients = append(clients, c)
		}
	}
	for _, mf := range cm.macroflows {
		mf.background.Stop()
		// Grants die with the process; account them reclaimed so grant
		// conservation holds across the wipe.
		n := int64(len(mf.grants))
		mf.stats.GrantsReclaimed += n
		cm.acct.GrantsReclaimed += n
	}
	// Free the highest slot first, so the free list hands slots back lowest
	// first.
	for i := len(cm.flows) - 1; i >= 0; i-- {
		if fl := cm.flows[i].fl; fl != nil {
			cm.freeSlot(fl)
		}
	}
	cm.byKey = make(map[netsim.FlowKey]*flowState)
	cm.macroflows = make(map[macroflowKey]*Macroflow)
	for _, c := range clients {
		c.CMRestarted()
	}
	return wiped
}

// ResetAllMacroflows discards learned congestion state on every macroflow
// (the moving host's own path knowledge is stale after an address change).
// Flows, registrations and pending requests survive; windows restart from
// the initial value. Returns the number of macroflows reset.
func (cm *CM) ResetAllMacroflows() int {
	return cm.resetMacroflows(func(macroflowKey) bool { return true })
}

// ResetMacroflows discards congestion state on the macroflows aggregating
// flows to dstHost (including split ones), for peers of a moved host: their
// path state toward the old address is worthless. Returns the number reset.
func (cm *CM) ResetMacroflows(dstHost string) int {
	return cm.resetMacroflows(func(k macroflowKey) bool { return k.dstHost == dstHost })
}

func (cm *CM) resetMacroflows(match func(macroflowKey) bool) int {
	// Deterministic order: resets pump grants, and grant delivery order must
	// not depend on map iteration.
	keys := make([]macroflowKey, 0, len(cm.macroflows))
	for k := range cm.macroflows {
		if match(k) {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dstHost != keys[j].dstHost {
			return keys[i].dstHost < keys[j].dstHost
		}
		return keys[i].tag < keys[j].tag
	})
	for _, k := range keys {
		cm.macroflows[k].reset()
		cm.acct.MacroflowResets++
	}
	return len(keys)
}

// reset returns the macroflow to its just-created congestion state while
// keeping its flows attached: outstanding grants are reclaimed, window
// accounting zeroed, the controller rebuilt, and RTT/loss estimates cleared.
// Pending requests survive, so the pump immediately starts regranting from
// the initial window.
func (m *Macroflow) reset() {
	now := m.cm.sched.Now()
	n := int64(len(m.grants))
	m.stats.GrantsReclaimed += n
	m.cm.acct.GrantsReclaimed += n
	for _, fl := range m.rr.flows {
		fl.unclaimedGrants = 0
	}
	m.grants = nil
	m.grantedBytes = 0
	m.outstanding = 0
	m.ctrl = newAIMD(&m.cm.cfg)
	m.srtt = 0
	m.rttvar = 0
	m.hasRTT = false
	m.lossEWMA = 0
	m.lastFeedback = now
	m.lastActivity = now
	m.pump()
}

// AuditReport is a liveness/conservation snapshot of one CM, taken after a
// run by the faults invariant checker.
type AuditReport struct {
	// Flows is the number of open flows.
	Flows int
	// PendingRequests sums pendingRequests over all flows.
	PendingRequests int
	// UnclaimedGrants sums per-flow unclaimed grant counts.
	UnclaimedGrants int
	// OutstandingGrants is the number of grants currently held by
	// macroflows (issued, neither claimed nor reclaimed).
	OutstandingGrants int
	// StrandedFlows counts flows that want to send (pending requests and a
	// registered cmapp_send callback) while their macroflow's window is
	// open: the pump should have granted them, so a nonzero count at end of
	// run means a request was lost somewhere between client and scheduler.
	StrandedFlows int
	// NegativePending counts flows whose pending-request counter went
	// negative (a double-grant bug).
	NegativePending int
}

// Audit walks the CM's tables and returns the invariant snapshot.
func (cm *CM) Audit() AuditReport {
	var r AuditReport
	r.Flows = cm.FlowCount()
	for _, s := range cm.flows {
		fl := s.fl
		if fl == nil {
			continue
		}
		r.PendingRequests += fl.pendingRequests
		r.UnclaimedGrants += fl.unclaimedGrants
		if fl.pendingRequests < 0 {
			r.NegativePending++
		}
		if fl.pendingRequests > 0 && fl.sender != nil && fl.mf.windowOpen() {
			r.StrandedFlows++
		}
	}
	for _, mf := range cm.macroflows {
		r.OutstandingGrants += len(mf.grants)
	}
	return r
}
