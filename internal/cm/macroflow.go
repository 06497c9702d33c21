package cm

import (
	"time"

	"repro/internal/probe"
	"repro/internal/simtime"
)

// grant records permission given to a flow to send up to one MTU, not yet
// accounted for by a cm_notify from the IP layer.
type grant struct {
	flow   *flowState
	issued time.Duration
	bytes  int
}

// MacroflowStats are cumulative counters for one macroflow.
type MacroflowStats struct {
	GrantsIssued      int64
	GrantsReclaimed   int64
	BytesCharged      int64
	BytesAcked        int64
	BytesLost         int64
	Updates           int64
	TransientSignals  int64
	PersistentSignals int64
	ECNSignals        int64
	IdleRestarts      int64
	UpdateCallbacks   int64
}

// Macroflow is the unit of congestion state sharing: all flows to the same
// destination host share one macroflow, its AIMD congestion controller, its
// round-robin over the flows and its RTT/loss estimates (paper §2).
type Macroflow struct {
	cm   *CM
	key  macroflowKey
	ctrl aimd
	// rr is the rotation over the attached flows; rr.flows lists them in
	// the order they joined.
	rr roundRobin

	// Window accounting (bytes).
	outstanding  int // charged via Notify, not yet covered by feedback
	grantedBytes int // granted but not yet charged
	grants       []grant

	// Path state shared across the macroflow.
	srtt     time.Duration
	rttvar   time.Duration
	hasRTT   bool
	lossEWMA float64

	lastFeedback time.Duration
	lastActivity time.Duration

	pumping    bool
	background simtime.EventTimer
	stats      MacroflowStats
}

func newMacroflow(cm *CM, key macroflowKey) *Macroflow {
	mf := &Macroflow{
		cm:   cm,
		key:  key,
		ctrl: newAIMD(&cm.cfg),
		// Room for a few concurrent flows up front, as for CM.flows.
		rr: roundRobin{flows: make([]*flowState, 0, 4)},
	}
	mf.background.Init(cm.sched, simtime.KindCMGrant, fireBackground, mf)
	mf.lastFeedback = cm.sched.Now()
	mf.lastActivity = cm.sched.Now()
	return mf
}

func fireBackground(m any) { m.(*Macroflow).onBackgroundTimer() }

// Key fields exposed for tests and experiments.

// DstHost returns the destination host aggregating this macroflow.
func (m *Macroflow) DstHost() string { return m.key.dstHost }

// Window returns the current congestion window in bytes.
func (m *Macroflow) Window() int { return m.ctrl.window() }

// Outstanding returns the bytes charged but not yet covered by feedback.
func (m *Macroflow) Outstanding() int { return m.outstanding }

// SRTT returns the macroflow's smoothed RTT (zero before the first sample).
func (m *Macroflow) SRTT() time.Duration { return m.srtt }

// RTTVar returns the macroflow's RTT mean deviation.
func (m *Macroflow) RTTVar() time.Duration { return m.rttvar }

// LossRate returns the exponentially weighted loss estimate.
func (m *Macroflow) LossRate() float64 { return m.lossEWMA }

// Stats returns a copy of the macroflow counters.
func (m *Macroflow) Stats() MacroflowStats { return m.stats }

// FlowCount returns the number of currently attached flows.
func (m *Macroflow) FlowCount() int { return len(m.rr.flows) }

func (m *Macroflow) mtu() int { return m.cm.cfg.MTU }

func (m *Macroflow) removeFlow(fl *flowState) {
	// Reclaim any window held by the departing flow so other flows are not
	// blocked by grants that will never be claimed.
	if fl.unclaimedGrants > 0 {
		for i := 0; i < len(m.grants); {
			if m.grants[i].flow == fl {
				m.grantedBytes -= m.removeGrant(i).bytes
				m.stats.GrantsReclaimed++
				m.cm.acct.GrantsReclaimed++
				continue
			}
			i++
		}
		fl.unclaimedGrants = 0
	}
	m.rr.remove(fl)
	fl.pendingRequests = 0
	m.pump()
}

// windowOpen reports whether the controller's window has room for another
// MTU-sized grant, counting both charged bytes and unclaimed grants.
func (m *Macroflow) windowOpen() bool {
	return m.outstanding+m.grantedBytes+m.mtu() <= m.ctrl.window() ||
		(m.outstanding == 0 && m.grantedBytes == 0)
}

// pump is the grant loop: while the window is open and some flow has a
// pending request, pick the next flow (the rotation), issue a grant and
// deliver the cmapp_send callback. Reentrant calls (from within callbacks) are
// flattened so the loop never recurses.
func (m *Macroflow) pump() {
	if m.pumping {
		return
	}
	m.pumping = true
	for m.windowOpen() {
		fl := m.rr.next()
		if fl == nil {
			break
		}
		fl.unclaimedGrants++
		fl.grantsReceived++
		g := grant{flow: fl, issued: m.cm.sched.Now(), bytes: m.mtu()}
		m.grants = append(m.grants, g)
		m.grantedBytes += g.bytes
		m.stats.GrantsIssued++
		m.cm.acct.GrantsIssued++
		m.lastActivity = m.cm.sched.Now()
		if m.cm.rec != nil {
			m.cm.rec.Append(probe.Event{At: g.issued, Kind: probe.EvGrant, Flow: int64(fl.id), Size: int64(g.bytes)})
		}
		if fl.sender != nil {
			fl.dispatcher.DeliverSend(fl.id, fl.sender)
		} else {
			// A request with no registered callback cannot be honoured;
			// reclaim the grant immediately so other flows can proceed.
			m.reclaimGrant(fl)
		}
	}
	m.pumping = false
	m.armBackgroundTimer()
}

// removeGrant deletes and returns grant i, keeping the order of the rest. The
// vacated slot is cleared: a stale copy there would keep the flow it names —
// and through its send callback the client's whole connection — reachable
// after cm_close for as long as the macroflow lives.
func (m *Macroflow) removeGrant(i int) grant {
	g := m.grants[i]
	last := len(m.grants) - 1
	copy(m.grants[i:], m.grants[i+1:])
	m.grants[last] = grant{}
	m.grants = m.grants[:last]
	return g
}

// reclaimGrant removes the oldest unclaimed grant belonging to fl, returning
// whether one existed.
func (m *Macroflow) reclaimGrant(fl *flowState) bool {
	for i, g := range m.grants {
		if g.flow == fl {
			m.removeGrant(i)
			m.grantedBytes -= g.bytes
			if fl.unclaimedGrants > 0 {
				fl.unclaimedGrants--
			}
			m.stats.GrantsReclaimed++
			m.cm.acct.GrantsReclaimed++
			return true
		}
	}
	return false
}

// notify charges nbytes of an actual transmission to the macroflow
// (cm_notify). nbytes of zero means the client declined its grant.
func (m *Macroflow) notify(fl *flowState, nbytes int) {
	if fl.unclaimedGrants > 0 {
		m.reclaimGrant(fl)
	}
	if nbytes > 0 {
		m.outstanding += nbytes
		fl.bytesCharged += int64(nbytes)
		m.stats.BytesCharged += int64(nbytes)
	}
	m.lastActivity = m.cm.sched.Now()
	m.pump()
}

// update applies client feedback (cm_update) to the shared congestion state.
func (m *Macroflow) update(fl *flowState, nsent, nrecd int, mode LossMode, rtt time.Duration) {
	if nsent < nrecd {
		nsent = nrecd
	}
	m.stats.Updates++
	m.lastFeedback = m.cm.sched.Now()
	m.lastActivity = m.cm.sched.Now()

	// RTT estimation (Jacobson/Karels), shared across every flow of the
	// macroflow so each connection benefits from the others' samples.
	if rtt > 0 {
		m.addRTTSample(rtt)
	}

	outstandingBefore := m.outstanding

	// The bytes covered by this feedback are no longer outstanding.
	switch mode {
	case PersistentLoss:
		// A timeout implies the pipe has drained.
		m.outstanding = 0
		m.stats.PersistentSignals++
	default:
		m.outstanding -= nsent
		if m.outstanding < 0 {
			m.outstanding = 0
		}
		if mode == TransientLoss {
			m.stats.TransientSignals++
		}
		if mode == ECNLoss {
			m.stats.ECNSignals++
		}
	}
	lost := nsent - nrecd
	m.stats.BytesAcked += int64(nrecd)
	m.stats.BytesLost += int64(lost)
	if nsent > 0 {
		sampleLoss := float64(lost) / float64(nsent)
		const alpha = 0.25
		m.lossEWMA = (1-alpha)*m.lossEWMA + alpha*sampleLoss
	}

	// Congestion window validation: if the macroflow was using less than
	// half of its window when this feedback was generated, the feedback does
	// not justify further growth.
	appLimited := outstandingBefore < m.ctrl.window()/2
	m.ctrl.onFeedback(Feedback{SentBytes: nsent, ReceivedBytes: nrecd, Mode: mode, RTT: rtt, AppLimited: appLimited})

	// Window state changed: hand out new grants and deliver threshold-based
	// rate callbacks.
	m.pump()
	m.deliverRateCallbacks()
}

func (m *Macroflow) addRTTSample(rtt time.Duration) {
	if !m.hasRTT {
		m.srtt = rtt
		m.rttvar = rtt / 2
		m.hasRTT = true
		return
	}
	diff := m.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	m.rttvar += (diff - m.rttvar) / 4
	m.srtt += (rtt - m.srtt) / 8
}

// Rate returns the macroflow's estimated sustainable rate in bytes per
// second: one congestion window per smoothed RTT. Before an RTT sample is
// available a conservative default of one window per second is reported.
func (m *Macroflow) Rate() float64 {
	w := float64(m.ctrl.window())
	if !m.hasRTT || m.srtt <= 0 {
		return w
	}
	return w / m.srtt.Seconds()
}

// flowRate apportions the macroflow rate to one of its flows in proportion
// to its weight.
func (m *Macroflow) flowRate(fl *flowState) float64 {
	return m.Rate() * fl.weight / m.rr.weightSum
}

// status builds the Status snapshot for a flow.
func (m *Macroflow) status(fl *flowState) Status {
	return Status{
		Rate:          m.flowRate(fl),
		MacroflowRate: m.Rate(),
		SRTT:          m.srtt,
		RTTVar:        m.rttvar,
		LossRate:      m.lossEWMA,
		CWND:          m.ctrl.window(),
		Outstanding:   m.outstanding,
		MTU:           m.mtu(),
	}
}

// deliverRateCallbacks notifies flows whose registered thresholds have been
// crossed since the last report (cmapp_update + cm_thresh semantics), in the
// order the flows joined the macroflow.
func (m *Macroflow) deliverRateCallbacks() {
	for i := 0; i < len(m.rr.flows); i++ {
		fl := m.rr.flows[i]
		if fl.updateCB == nil {
			continue
		}
		rate := m.flowRate(fl)
		if fl.everReported {
			last := fl.lastReportedRate
			if last > 0 {
				if rate > last/fl.threshDown && rate < last*fl.threshUp {
					continue
				}
			} else if rate == 0 {
				continue
			}
		}
		fl.everReported = true
		fl.lastReportedRate = rate
		m.stats.UpdateCallbacks++
		m.cm.acct.UpdateCallbacks++
		fl.dispatcher.DeliverUpdate(fl.id, m.status(fl), fl.updateCB)
		// A callback that closed or moved flows has shifted the rest down:
		// step back so the flow now at i is not skipped.
		if i < len(m.rr.flows) && m.rr.flows[i] != fl {
			i--
		}
	}
}

// armBackgroundTimer keeps the per-macroflow timer running while there is
// anything for the background task to watch (unclaimed grants or outstanding
// data awaiting feedback).
func (m *Macroflow) armBackgroundTimer() {
	if len(m.grants) == 0 && m.outstanding == 0 {
		m.background.Stop()
		return
	}
	if m.background.Pending() {
		return
	}
	interval := m.cm.cfg.GrantTimeout / 2
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	m.background.Reset(interval)
}

// onBackgroundTimer is the paper's "timer-driven component to perform
// background tasks and error handling": it reclaims grants that were never
// claimed with a cm_notify, and treats long feedback starvation with data
// outstanding as persistent congestion so the macroflow cannot deadlock.
func (m *Macroflow) onBackgroundTimer() {
	now := m.cm.sched.Now()

	// Expire stale grants.
	expired := 0
	for i := 0; i < len(m.grants); {
		if now-m.grants[i].issued >= m.cm.cfg.GrantTimeout {
			g := m.removeGrant(i)
			m.grantedBytes -= g.bytes
			if g.flow.unclaimedGrants > 0 {
				g.flow.unclaimedGrants--
			}
			m.stats.GrantsReclaimed++
			m.cm.acct.GrantsReclaimed++
			expired++
			continue
		}
		i++
	}

	// Feedback starvation: data has been outstanding with no feedback for a
	// long time; assume persistent congestion and restart conservatively.
	if m.outstanding > 0 && now-m.lastFeedback >= m.cm.cfg.FeedbackStarvationTimeout {
		m.outstanding = 0
		m.ctrl.onIdleRestart()
		m.stats.IdleRestarts++
		m.lastFeedback = now
		m.deliverRateCallbacks()
	}

	if expired > 0 || m.windowOpen() {
		m.pump()
	} else {
		m.armBackgroundTimer()
	}
}
