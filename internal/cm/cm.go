// Package cm implements the Congestion Manager (CM), the primary contribution
// of "System Support for Bandwidth Management and Content Adaptation in
// Internet Applications" (Andersen et al., OSDI 2000).
//
// The CM integrates congestion management across all of a sender's flows.
// Flows to the same destination host are aggregated into a macroflow that
// shares one congestion controller (a TCP-friendly window-based AIMD scheme
// with slow start and byte counting) and one set of path state (smoothed RTT,
// loss estimate). A round-robin apportions the macroflow's window among its
// constituent flows in proportion to their weights (SetWeight); every flow
// starts at weight 1, which is the paper's unweighted rotation.
//
// Clients use the API described in §2.1 of the paper:
//
//   - Open / Close / MTU                      — state management
//   - Request + cmapp_send callback           — ALF-style request/callback sends
//   - RegisterUpdate + Thresh + cmapp_update  — rate callbacks for self-clocked apps
//   - Update                                  — feedback (bytes sent/received, loss mode, RTT)
//   - Notify                                  — per-transmission charging from the IP output hook
//   - Query                                   — current rate / RTT / loss estimate
//   - BulkRequest / BulkUpdate / BulkNotify   — batched variants (§5, Optimizations)
//   - SplitFlow / MergeFlows                  — macroflow construction overrides
//
// In-kernel clients (the TCP implementation in internal/tcp) call these
// methods directly; user-space clients go through internal/libcm, which
// models the control-socket + select + ioctl boundary of the paper.
package cm

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/simtime"
)

// FlowID is the handle returned by Open and used in all subsequent calls,
// corresponding to cm_flowid in the paper. Its low 32 bits name a slot of the
// CM's flow table and the bits above them the slot's generation, which Close
// and Restart advance: a handle outlives its flow only as one that misses. A
// flow in a slot never used before has generation zero, so the first flows a
// CM opens get the handles 0, 1, 2, ...
type FlowID int

// slotBits is the width of a FlowID's slot index; genStep advances a handle to
// the next generation of the same slot.
const (
	slotBits        = 32
	slotMask        = 1<<slotBits - 1
	genStep  FlowID = 1 << slotBits
)

// InvalidFlow is returned by lookups that fail.
const InvalidFlow FlowID = -1

// LossMode describes the kind of congestion feedback carried by an Update
// call (paper §2.1.3).
type LossMode int

const (
	// NoLoss reports a successful transmission with no congestion signal.
	NoLoss LossMode = iota
	// TransientLoss reports isolated loss within a window, e.g. a TCP fast
	// retransmit triggered by three duplicate ACKs.
	TransientLoss
	// PersistentLoss reports serious loss such as a TCP retransmission
	// timeout (CM_LOST_FEEDBACK in the paper); the window collapses to the
	// initial value and slow start resumes.
	PersistentLoss
	// ECNLoss reports an Explicit Congestion Notification mark: the window
	// is reduced as for transient loss but nothing was dropped.
	ECNLoss
)

// String names the loss mode.
func (m LossMode) String() string {
	switch m {
	case NoLoss:
		return "none"
	case TransientLoss:
		return "transient"
	case PersistentLoss:
		return "persistent"
	case ECNLoss:
		return "ecn"
	default:
		return fmt.Sprintf("lossmode(%d)", int(m))
	}
}

// Status is the network-state snapshot returned by Query and delivered with
// rate callbacks (cmapp_update).
type Status struct {
	// Rate is the bandwidth available to this flow in bytes/second (the
	// macroflow rate divided among its flows in proportion to their
	// weights).
	Rate float64
	// MacroflowRate is the aggregate rate of the macroflow in bytes/second.
	MacroflowRate float64
	// SRTT and RTTVar are the smoothed round-trip time estimate and its
	// mean deviation, aggregated across all flows of the macroflow.
	SRTT   time.Duration
	RTTVar time.Duration
	// LossRate is an exponentially weighted estimate of the fraction of
	// bytes lost.
	LossRate float64
	// CWND is the macroflow congestion window in bytes.
	CWND int
	// Outstanding is the number of bytes charged to the macroflow that have
	// not yet been accounted for by feedback.
	Outstanding int
	// MTU is the maximum transmission unit for the flow's path.
	MTU int
}

// SendCallback is the cmapp_send upcall: permission for the flow to transmit
// up to MTU bytes.
type SendCallback func(f FlowID)

// Sender is who receives a flow's cmapp_send upcall. A client that is an
// object already — TCP's CM congestion controller, one per connection —
// registers itself with RegisterSender and pays for no closure per flow; a
// SendCallback is the Sender that calls a plain function.
type Sender interface {
	CMAppSend(f FlowID)
}

// CMAppSend implements Sender.
func (cb SendCallback) CMAppSend(f FlowID) { cb(f) }

// UpdateCallback is the cmapp_update upcall: notification that network
// conditions changed beyond the thresholds set with Thresh.
type UpdateCallback func(f FlowID, st Status)

// Dispatcher delivers callbacks to a client. In-kernel clients use the
// direct dispatcher (plain function calls, as TCP does in the paper);
// user-space clients register a libcm dispatcher that models the
// kernel-to-user notification path.
type Dispatcher interface {
	DeliverSend(f FlowID, to Sender)
	DeliverUpdate(f FlowID, st Status, cb UpdateCallback)
}

// directDispatcher calls back synchronously in the same "protection domain".
type directDispatcher struct{}

func (directDispatcher) DeliverSend(f FlowID, to Sender) { to.CMAppSend(f) }
func (directDispatcher) DeliverUpdate(f FlowID, st Status, cb UpdateCallback) {
	cb(f, st)
}

// DirectDispatcher returns the dispatcher used for in-kernel clients.
func DirectDispatcher() Dispatcher { return directDispatcher{} }

// Config collects the tunables of a CM instance. The zero value is usable;
// New fills in defaults matching the paper's implementation.
type Config struct {
	// MTU is the default maximum transmission unit used for grants and as
	// the unit of window arithmetic. Default 1500 bytes (Ethernet).
	MTU int
	// InitialWindowMTUs is the initial and post-persistent-loss congestion
	// window in MTUs. The CM uses 1 (the paper notes Linux used 2, which is
	// one of the two deliberate differences in Figure 4).
	InitialWindowMTUs int
	// MaxWindowBytes caps the congestion window; 0 means no cap.
	MaxWindowBytes int
	// GrantTimeout is how long an unclaimed send grant is held before the
	// background task reclaims it so other flows are not starved.
	GrantTimeout time.Duration
	// FeedbackStarvationTimeout is how long a macroflow with outstanding
	// bytes may go without any Update before the background task treats the
	// silence as persistent congestion. It guards against clients that die
	// or lose their feedback channel.
	FeedbackStarvationTimeout time.Duration
}

// defaultThreshDown and defaultThreshUp are the rate-change factors that
// trigger cmapp_update callbacks for a flow whose client has not called
// Thresh.
const (
	defaultThreshDown = 1.25
	defaultThreshUp   = 1.25
)

func (c *Config) fillDefaults() {
	if c.MTU <= 0 {
		c.MTU = netsim.DefaultMTU
	}
	if c.InitialWindowMTUs <= 0 {
		c.InitialWindowMTUs = 1
	}
	if c.GrantTimeout <= 0 {
		c.GrantTimeout = 500 * time.Millisecond
	}
	if c.FeedbackStarvationTimeout <= 0 {
		c.FeedbackStarvationTimeout = 3 * time.Second
	}
}

// Option mutates the configuration at construction time.
type Option func(*Config)

// WithMTU sets the default MTU.
func WithMTU(mtu int) Option { return func(c *Config) { c.MTU = mtu } }

// WithInitialWindow sets the initial window in MTUs.
func WithInitialWindow(mtus int) Option {
	return func(c *Config) { c.InitialWindowMTUs = mtus }
}

// WithGrantTimeout sets how long unclaimed grants are held.
func WithGrantTimeout(d time.Duration) Option {
	return func(c *Config) { c.GrantTimeout = d }
}

// WithFeedbackStarvationTimeout sets the background error-handling timeout.
func WithFeedbackStarvationTimeout(d time.Duration) Option {
	return func(c *Config) { c.FeedbackStarvationTimeout = d }
}

// WithMaxWindow caps the congestion window in bytes.
func WithMaxWindow(bytes int) Option {
	return func(c *Config) { c.MaxWindowBytes = bytes }
}

// CM is one host's Congestion Manager instance.
type CM struct {
	cfg   Config
	sched *simtime.Scheduler

	nextMFTag int
	// flows is the slot table FlowIDs index (see FlowID). Its free slots
	// form a list through the table, popped last-in first-out from
	// freeHead, 1 + the index of the first free slot (0: none is free).
	flows    []flowSlot
	freeHead int
	nflows   int
	// byKey indexes open flows by their transport 5-tuple. It serves Open's
	// idempotence, Lookup, and the charge path for packets that carry no
	// flow handle (NotifyTransmit, and NotifyPacket for unstamped traffic).
	byKey      map[netsim.FlowKey]*flowState
	macroflows map[macroflowKey]*Macroflow
	// bulkTouched is BulkRequest's scratch list of the macroflows a call
	// touched, kept between calls so a call allocates nothing.
	bulkTouched []*Macroflow

	// owned, when non-nil, must report true whenever CM code runs; sharded
	// scenario execution installs a shard-affinity check (a CM belongs to its
	// host's shard). Serial runs leave it nil.
	owned func() bool

	// epoch counts CM restarts (see Restart).
	epoch int64

	// rec, when non-nil, receives flight-recorder events for the request/
	// grant/notify control loop. Appending to the ring never allocates, and
	// the nil check keeps the disabled path at its zero-alloc baseline.
	rec *probe.Recorder

	acct Accounting
}

// New creates a Congestion Manager on its host's scheduler, which is both
// its clock and where its timers run. clock and timers must be that one
// scheduler: the pair is the signature cmperf compiles against, and New
// panics on nil or on two different schedulers.
func New(clock, timers *simtime.Scheduler, opts ...Option) *CM {
	if clock == nil || clock != timers {
		panic("cm: New requires one non-nil scheduler as clock and timers")
	}
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	cfg.fillDefaults()
	return &CM{
		cfg:   cfg,
		sched: clock,
		// Room for the first flows up front: one allocation, as the map
		// the slot table replaced took, instead of one per doubling.
		flows:      make([]flowSlot, 0, 8),
		byKey:      make(map[netsim.FlowKey]*flowState),
		macroflows: make(map[macroflowKey]*Macroflow),
	}
}

// Config returns a copy of the effective configuration.
func (cm *CM) Config() Config { return cm.cfg }

// SetOwnershipCheck installs a predicate asserting that the calling
// goroutine may drive this CM (true = allowed). Sharded execution pins each
// CM to its host's shard with it; nil (the default) disables the check.
func (cm *CM) SetOwnershipCheck(fn func() bool) { cm.owned = fn }

// SetRecorder attaches a flight recorder receiving cm-request, cm-grant and
// cm-notify events; nil (the default) detaches it.
func (cm *CM) SetRecorder(r *probe.Recorder) { cm.rec = r }

// Now returns the CM's current time.
func (cm *CM) Now() time.Duration { return cm.sched.Now() }

// Accounting returns a copy of the API-call counters, used by the API-cost
// model when reproducing the overhead experiments.
func (cm *CM) Accounting() Accounting { return cm.acct }

// flowSlot is one entry of the CM's flow table.
type flowSlot struct {
	fl *flowState // nil while the slot is free
	// id is fl's handle, or while the slot is free the handle it issues
	// next. A lookup compares it here, without touching the flow record.
	id FlowID
	// nextFree is, while the slot is free, 1 + the index of the next free
	// slot (0 ends the list).
	nextFree int
}

// macroflowKey identifies a macroflow: by default all flows to the same
// destination host share one macroflow. The tag distinguishes macroflows
// created by SplitFlow.
type macroflowKey struct {
	dstHost string
	tag     int
}

// Open creates a CM flow for the (proto, src, dst) tuple and attaches it to
// the macroflow for dst (creating the macroflow if needed). It corresponds to
// cm_open; the source address is part of the key to support multihomed hosts,
// a change the paper made between simulation and implementation.
func (cm *CM) Open(proto netsim.Protocol, src, dst netsim.Addr) FlowID {
	cm.acct.Opens++
	key := netsim.FlowKey{Proto: proto, Src: src, Dst: dst}
	if fl, ok := cm.byKey[key]; ok {
		// Re-opening an existing flow returns the same handle, matching the
		// idempotent behaviour of the kernel module.
		return fl.id
	}
	var id FlowID
	if cm.freeHead != 0 {
		free := &cm.flows[cm.freeHead-1]
		id, cm.freeHead = free.id, free.nextFree
	} else {
		id = FlowID(len(cm.flows))
		cm.flows = append(cm.flows, flowSlot{})
	}
	mf := cm.macroflowFor(macroflowKey{dstHost: dst.Host})
	fl := &flowState{
		id:         id,
		key:        key,
		mf:         mf,
		dispatcher: DirectDispatcher(),
		threshDown: defaultThreshDown,
		threshUp:   defaultThreshUp,
		weight:     1,
		open:       true,
	}
	cm.flows[id&slotMask] = flowSlot{fl: fl, id: id}
	cm.nflows++
	cm.byKey[key] = fl
	mf.rr.add(fl)
	return id
}

// Lookup returns the flow ID for a transport flow key, or InvalidFlow if the
// flow is not managed by the CM.
func (cm *CM) Lookup(key netsim.FlowKey) FlowID {
	if fl, ok := cm.byKey[key]; ok {
		return fl.id
	}
	return InvalidFlow
}

// Close releases a flow (cm_close). The macroflow and its congestion state
// persist so that later flows to the same destination start with the learned
// window and RTT — the behaviour that Figure 7 of the paper demonstrates.
func (cm *CM) Close(f FlowID) {
	fl := cm.flow(f)
	if fl == nil {
		return
	}
	cm.acct.Closes++
	fl.open = false
	fl.mf.removeFlow(fl)
	delete(cm.byKey, fl.key)
	cm.freeSlot(fl)
}

// flow resolves a handle to its open flow, or counts a StaleFlowCalls and
// returns nil when the handle names no open flow: one from a closed flow or
// an earlier epoch (its slot has moved on a generation), a negative one, or
// one past the table.
func (cm *CM) flow(f FlowID) *flowState {
	if fl := cm.slot(f); fl != nil {
		return fl
	}
	cm.acct.StaleFlowCalls++
	return nil
}

// slot is flow without the accounting.
func (cm *CM) slot(f FlowID) *flowState {
	if i := uint64(f) & slotMask; i < uint64(len(cm.flows)) {
		if s := &cm.flows[i]; s.fl != nil && s.id == f {
			return s.fl
		}
	}
	return nil
}

// freeSlot empties fl's slot and pushes it on the free list under its next
// generation.
func (cm *CM) freeSlot(fl *flowState) {
	i := int(fl.id & slotMask)
	cm.flows[i] = flowSlot{id: fl.id + genStep, nextFree: cm.freeHead}
	cm.freeHead = i + 1
	cm.nflows--
}

// MTU returns the maximum transmission unit for the flow's path (cm_mtu).
func (cm *CM) MTU(f FlowID) int {
	if fl := cm.slot(f); fl != nil {
		return fl.mf.mtu()
	}
	return cm.cfg.MTU
}

// FlowCount returns the number of open flows.
func (cm *CM) FlowCount() int { return cm.nflows }

// MacroflowCount returns the number of macroflows (including idle ones that
// retain congestion state).
func (cm *CM) MacroflowCount() int { return len(cm.macroflows) }

// MacroflowOf returns the macroflow a flow currently belongs to, for tests
// and experiments that inspect aggregation.
func (cm *CM) MacroflowOf(f FlowID) *Macroflow {
	if fl := cm.slot(f); fl != nil {
		return fl.mf
	}
	return nil
}

// MacroflowTo returns the default (unsplit) macroflow aggregating flows to
// dstHost, or nil if no flow to that destination has been opened. Experiments
// use it to observe a destination's shared congestion state without holding a
// flow handle.
func (cm *CM) MacroflowTo(dstHost string) *Macroflow {
	return cm.macroflows[macroflowKey{dstHost: dstHost}]
}

// AggregateStatus is the cross-macroflow summary sampled by the cm[...]
// observability probes: additive quantities are summed, path properties
// reported as the worst case.
type AggregateStatus struct {
	Rate        float64       // sum of macroflow rates, bytes/s
	CWND        int           // sum of congestion windows, bytes
	Outstanding int           // sum of charged-but-unreported bytes
	SRTT        time.Duration // max smoothed RTT
	LossRate    float64       // max loss estimate
	Flows       int
	Macroflows  int
}

// AggregateStatus summarises every macroflow. Macroflows are visited in
// sorted (destination host, tag) order so the floating-point rate sum is
// independent of map iteration order — the property that keeps probe series
// byte-identical across serial and sharded runs.
func (cm *CM) AggregateStatus() AggregateStatus {
	keys := make([]macroflowKey, 0, len(cm.macroflows))
	for k := range cm.macroflows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].dstHost != keys[j].dstHost {
			return keys[i].dstHost < keys[j].dstHost
		}
		return keys[i].tag < keys[j].tag
	})
	st := AggregateStatus{Flows: cm.FlowCount(), Macroflows: len(cm.macroflows)}
	for _, k := range keys {
		m := cm.macroflows[k]
		st.Rate += m.Rate()
		st.CWND += m.Window()
		st.Outstanding += m.Outstanding()
		if s := m.SRTT(); s > st.SRTT {
			st.SRTT = s
		}
		if lr := m.LossRate(); lr > st.LossRate {
			st.LossRate = lr
		}
	}
	return st
}

// macroflowFor returns (creating if necessary) the macroflow for a key.
func (cm *CM) macroflowFor(key macroflowKey) *Macroflow {
	if mf, ok := cm.macroflows[key]; ok {
		return mf
	}
	mf := newMacroflow(cm, key)
	cm.macroflows[key] = mf
	return mf
}

// NotifyPacket implements node.TransmitNotifier: the IP output routine hands
// over every transmission so the CM can charge it to the right macroflow. A
// packet stamped with a flow handle (netsim.Packet.SetCMFlow) is charged to
// that flow by a slot read; a stale stamp, from before a Close or a Restart,
// charges nothing and counts no StaleFlowCalls, as a key that misses does.
// Unstamped packets are charged by key, as NotifyTransmit does.
func (cm *CM) NotifyPacket(pkt *netsim.Packet, nbytes int) {
	if cm.owned != nil && !cm.owned() {
		panic("cm: NotifyPacket outside the CM's owning shard")
	}
	var fl *flowState
	if h, ok := pkt.CMFlow(); ok {
		fl = cm.slot(FlowID(h))
	} else {
		fl = cm.byKey[pkt.Key()]
	}
	if fl != nil {
		cm.notifyFlow(fl, nbytes)
	}
}

// NotifyTransmit charges a transmission of the flow with the given key, the
// way the IP output hook charges a packet that carries no flow handle.
// Transmissions for flows the CM does not manage are ignored.
func (cm *CM) NotifyTransmit(key netsim.FlowKey, nbytes int) {
	if cm.owned != nil && !cm.owned() {
		panic("cm: NotifyTransmit outside the CM's owning shard")
	}
	if fl := cm.byKey[key]; fl != nil {
		cm.notifyFlow(fl, nbytes)
	}
}
