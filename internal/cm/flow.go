package cm

import "repro/internal/netsim"

// flowState is the CM's per-flow record. One exists for every flow a client
// has opened; it points at the macroflow that owns the shared congestion
// state.
type flowState struct {
	id   FlowID
	key  netsim.FlowKey
	mf   *Macroflow
	open bool

	// Client interface state.
	dispatcher Dispatcher
	sender     Sender
	updateCB   UpdateCallback

	// Rate-callback thresholds (cm_thresh): a cmapp_update is delivered when
	// the per-flow rate falls by a factor of threshDown or rises by a factor
	// of threshUp since the last report.
	threshDown       float64
	threshUp         float64
	lastReportedRate float64
	everReported     bool

	// Scheduling state. weight is the flow's share of its macroflow's
	// grants and rate (SetWeight); credit is what is left of the weight it
	// gained when the rotation last arrived at it (see roundRobin).
	pendingRequests int
	unclaimedGrants int
	weight          float64
	credit          float64

	// Intrusive links for the rotation's eligible-only ring (nil when the
	// flow has no pending requests), and the flow's join position in the
	// rotation, which orders it. Living on the flowState keeps the rotation
	// allocation-free.
	eligNext, eligPrev *flowState
	schedPos           uint64

	// Statistics.
	grantsReceived int64
	bytesCharged   int64
}

// FlowInfo is a read-only snapshot of per-flow statistics exposed for tests,
// experiments and the cmsim tool.
type FlowInfo struct {
	ID              FlowID
	Key             netsim.FlowKey
	PendingRequests int
	UnclaimedGrants int
	GrantsReceived  int64
	BytesCharged    int64
	Weight          float64
}

// FlowInfo returns a snapshot of a flow's state, or a zero value if the flow
// does not exist.
func (cm *CM) FlowInfo(f FlowID) FlowInfo {
	fl := cm.slot(f)
	if fl == nil {
		return FlowInfo{ID: InvalidFlow}
	}
	return FlowInfo{
		ID:              fl.id,
		Key:             fl.key,
		PendingRequests: fl.pendingRequests,
		UnclaimedGrants: fl.unclaimedGrants,
		GrantsReceived:  fl.grantsReceived,
		BytesCharged:    fl.bytesCharged,
		Weight:          fl.weight,
	}
}
