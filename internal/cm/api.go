package cm

import (
	"math"
	"slices"
	"time"

	"repro/internal/probe"
)

// RegisterSend registers the cmapp_send callback for a flow and optionally a
// dispatcher (nil keeps the current one). The paper added
// cm_register_send() during implementation to give clients flexibility over
// which function receives the grant.
func (cm *CM) RegisterSend(f FlowID, cb SendCallback) {
	var to Sender // a nil callback must not become a non-nil Sender
	if cb != nil {
		to = cb
	}
	cm.RegisterSender(f, to)
}

// RegisterSender is RegisterSend for a client that receives the upcall as a
// method (see Sender). Nil unregisters.
func (cm *CM) RegisterSender(f FlowID, to Sender) {
	if fl := cm.flow(f); fl != nil {
		fl.sender = to
	}
}

// RegisterUpdate registers the cmapp_update callback used by the rate-callback
// API (cm_register_update in the paper).
func (cm *CM) RegisterUpdate(f FlowID, cb UpdateCallback) {
	if fl := cm.flow(f); fl != nil {
		fl.updateCB = cb
	}
}

// SetDispatcher installs the callback dispatcher for a flow. In-kernel
// clients keep the default direct dispatcher; libcm installs its own to model
// the kernel-to-user notification path.
func (cm *CM) SetDispatcher(f FlowID, d Dispatcher) {
	if fl := cm.flow(f); fl != nil && d != nil {
		fl.dispatcher = d
	}
}

// SetWeight sets a flow's weight, 1 at Open: its share of its macroflow's
// grants while it stays backlogged, and of the rate Query and the rate
// callbacks advertise, is its weight over the sum of the weights of the
// macroflow's flows. Weights must be finite and at least minWeight; other
// values are ignored.
func (cm *CM) SetWeight(f FlowID, w float64) {
	if fl := cm.flow(f); fl != nil && validWeight(w) {
		fl.mf.rr.setWeight(fl, w)
	}
}

// minWeight is the lightest weight SetWeight takes. A flow gains its weight
// in credit each time the rotation arrives at it and is granted at 1, so one
// grant walks the rotation at most 1/minWeight times.
const minWeight = 1.0 / 64

func validWeight(w float64) bool { return w >= minWeight && !math.IsInf(w, 1) }

// Request asks for permission to send up to one MTU on the flow
// (cm_request). Permission arrives later through the cmapp_send callback;
// each call is an implicit request for one MTU-sized grant.
func (cm *CM) Request(f FlowID) {
	fl := cm.flow(f)
	if fl == nil {
		return
	}
	cm.acct.Requests++
	if cm.rec != nil {
		cm.rec.Append(probe.Event{At: cm.sched.Now(), Kind: probe.EvRequest, Flow: int64(f)})
	}
	fl.pendingRequests++
	if fl.pendingRequests == 1 {
		fl.mf.rr.markEligible(fl)
	}
	fl.mf.pump()
}

// BulkRequest queues requests for several flows with a single call,
// corresponding to cm_bulk_request (§5, Optimizations): servers with many
// concurrent clients batch control operations to reduce boundary crossings.
//
// The touched macroflows are pumped once each, in the order the list first
// names them. The list of them is a scratch slice the CM keeps between calls;
// a BulkRequest made from inside a grant callback finds it taken and builds
// its own.
func (cm *CM) BulkRequest(flows []FlowID) {
	cm.acct.BulkRequests++
	touched := cm.bulkTouched[:0]
	cm.bulkTouched = nil
	for _, f := range flows {
		fl := cm.flow(f)
		if fl == nil {
			continue
		}
		fl.pendingRequests++
		if fl.pendingRequests == 1 {
			fl.mf.rr.markEligible(fl)
		}
		if !slices.Contains(touched, fl.mf) {
			touched = append(touched, fl.mf)
		}
	}
	for _, mf := range touched {
		mf.pump()
	}
	clear(touched)
	cm.bulkTouched = touched[:0]
}

// Notify charges nsent bytes of an actual transmission to the flow's
// macroflow (cm_notify). The IP output hook calls it for every packet; a
// client that declines a grant calls it with zero so other flows on the
// macroflow can transmit.
func (cm *CM) Notify(f FlowID, nsent int) {
	if fl := cm.flow(f); fl != nil {
		cm.notifyFlow(fl, nsent)
	}
}

// notifyFlow is the shared cm_notify body for callers that have already
// resolved the flow state (Notify by ID, the IP output hook by the packet's
// handle or key).
func (cm *CM) notifyFlow(fl *flowState, nsent int) {
	cm.acct.Notifies++
	if nsent < 0 {
		nsent = 0
	}
	if cm.rec != nil {
		cm.rec.Append(probe.Event{At: cm.sched.Now(), Kind: probe.EvNotify, Flow: int64(fl.id), Size: int64(nsent)})
	}
	fl.mf.notify(fl, nsent)
}

// UpdateArgs bundles the arguments of one Update for the bulk variant.
type UpdateArgs struct {
	Flow     FlowID
	Sent     int
	Received int
	Mode     LossMode
	RTT      time.Duration
}

// Update reports feedback from the receiver for a flow: how many bytes the
// feedback covers, how many arrived, the kind of congestion observed, and a
// round-trip time sample (cm_update).
func (cm *CM) Update(f FlowID, nsent, nrecd int, mode LossMode, rtt time.Duration) {
	fl := cm.flow(f)
	if fl == nil {
		return
	}
	cm.acct.Updates++
	if nsent < 0 {
		nsent = 0
	}
	if nrecd < 0 {
		nrecd = 0
	}
	fl.mf.update(fl, nsent, nrecd, mode, rtt)
}

// BulkUpdate applies several Update calls at once (cm_bulk_update).
func (cm *CM) BulkUpdate(updates []UpdateArgs) {
	cm.acct.BulkUpdates++
	for _, u := range updates {
		fl := cm.flow(u.Flow)
		if fl == nil {
			continue
		}
		nsent, nrecd := u.Sent, u.Received
		if nsent < 0 {
			nsent = 0
		}
		if nrecd < 0 {
			nrecd = 0
		}
		fl.mf.update(fl, nsent, nrecd, u.Mode, u.RTT)
	}
}

// Thresh sets the rate-change factors that trigger cmapp_update callbacks
// for the flow: a callback is delivered when the rate drops by a factor of
// down or rises by a factor of up since the last report (cm_thresh).
// Factors at or below 1 are rejected and leave the previous setting.
func (cm *CM) Thresh(f FlowID, down, up float64) {
	fl := cm.flow(f)
	if fl == nil {
		return
	}
	if down > 1 {
		fl.threshDown = down
	}
	if up > 1 {
		fl.threshUp = up
	}
}

// Query returns the CM's current estimate of the flow's available rate,
// round-trip time and loss rate (cm_query). Applications use it at stream
// start to pick an encoding and inside cmapp_send callbacks to adapt content.
func (cm *CM) Query(f FlowID) (Status, bool) {
	fl := cm.flow(f)
	if fl == nil {
		return Status{}, false
	}
	cm.acct.Queries++
	return fl.mf.status(fl), true
}

// SplitFlow moves a flow out of its per-destination macroflow into a fresh,
// private macroflow. The paper provides macroflow construction/splitting for
// cases where the default per-destination aggregation is unsuitable (for
// example differentiated-services paths).
func (cm *CM) SplitFlow(f FlowID) {
	fl := cm.flow(f)
	if fl == nil {
		return
	}
	if fl.mf.FlowCount() == 1 {
		return // already alone
	}
	fl.mf.removeFlow(fl)
	cm.nextMFTag++
	mf := cm.macroflowFor(macroflowKey{dstHost: fl.key.Dst.Host, tag: cm.nextMFTag})
	fl.mf = mf
	mf.rr.add(fl)
}

// MergeFlows moves flow b into flow a's macroflow so they share congestion
// state, overriding the default aggregation.
func (cm *CM) MergeFlows(a, b FlowID) {
	fa, fb := cm.flow(a), cm.flow(b)
	if fa == nil || fb == nil || fa.mf == fb.mf {
		return
	}
	fb.mf.removeFlow(fb)
	fb.mf = fa.mf
	fa.mf.rr.add(fb)
}

// Accounting counts API invocations and callback deliveries. The API-cost
// model uses these counters to reproduce the paper's overhead accounting
// (Table 1, Figures 5 and 6).
type Accounting struct {
	Opens           int64
	Closes          int64
	Requests        int64
	BulkRequests    int64
	Updates         int64
	BulkUpdates     int64
	Notifies        int64
	Queries         int64
	GrantsIssued    int64
	UpdateCallbacks int64
	// GrantsReclaimed counts grants taken back by any path — claim via
	// cm_notify, departing-flow cleanup, grant timeout, or a state wipe — so
	// GrantsIssued == GrantsReclaimed + outstanding grants holds at all times
	// (the grant-conservation invariant the fault-injection soak checks).
	GrantsReclaimed int64
	// StaleFlowCalls counts API calls naming a dead or unknown FlowID. They
	// no-op (the kernel module returns EINVAL), but after a CM restart a
	// client that fails to re-sync shows up here instead of being invisible.
	StaleFlowCalls int64
	// Restarts counts Restart invocations (process-death fault injection);
	// it equals the current epoch.
	Restarts int64
	// MacroflowResets counts macroflows whose congestion state was discarded
	// by a host-move event.
	MacroflowResets int64
}

// Total returns the total number of client-initiated API calls (excluding
// callbacks the CM itself delivers).
func (a Accounting) Total() int64 {
	return a.Opens + a.Closes + a.Requests + a.BulkRequests + a.Updates +
		a.BulkUpdates + a.Notifies + a.Queries
}
