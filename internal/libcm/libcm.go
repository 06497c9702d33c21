// Package libcm models the user-space CM library of the paper (§2.2). It
// gives applications the convenience of a callback-based API while standing
// in for the kernel/user notification machinery the paper chose: a single
// per-application control socket that the application select()s on, plus
// ioctls that drain batched notifications ("which flows may send", "what are
// the current network conditions").
//
// In the simulation all code runs in one address space, so what libcm
// preserves is the *structure* of the boundary: notifications are queued
// rather than delivered inline, they are drained in batches, and every
// crossing (select wakeup, ioctl, syscall) is counted so the API-overhead
// experiments (Table 1, Figure 6) and the bulk-call ablation can account for
// them.
package libcm

import (
	"sort"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/simtime"
)

// Mode selects how the application consumes notifications.
type Mode int

const (
	// ModeAuto lets libcm provide the event loop: as soon as the control
	// socket becomes ready a dispatch is scheduled (the application is
	// "coded with the CM in mind").
	ModeAuto Mode = iota
	// ModeManual leaves draining to the application: it calls Ready and
	// Dispatch from its own select loop or polling schedule.
	ModeManual
	// ModeSignal models the SIGIO option: libcm invokes the registered
	// signal handler when the control socket becomes ready; the handler is
	// expected to call Dispatch.
	ModeSignal
)

// Stats counts the kernel/user boundary crossings libcm performs on behalf of
// the application.
type Stats struct {
	// Selects counts select() wake-ups on the control socket.
	Selects int64
	// Ioctls counts control-socket ioctls (send-list drains, status reads,
	// and per-call requests/updates/notifies).
	Ioctls int64
	// Syscalls counts other system calls (open/close of the control socket).
	Syscalls int64
	// SendCallbacks and UpdateCallbacks count application callbacks
	// delivered.
	SendCallbacks   int64
	UpdateCallbacks int64
	// Dispatches counts Dispatch invocations; MaxSendBatch records the
	// largest number of send grants drained by a single ioctl, the benefit
	// of returning all ready flows at once (§2.2.2).
	Dispatches   int64
	MaxSendBatch int
	// Signals counts SIGIO-style notifications delivered in ModeSignal.
	Signals int64
	// Resyncs counts CM restarts this library detected (epoch bumps): each
	// one cleared the queued notifications and cached registrations and
	// invoked the application's restart handler.
	Resyncs int64
}

// Lib is one application's instance of the CM library. It implements
// cm.Dispatcher for the flows it manages.
type Lib struct {
	cm    *cm.CM
	sched *simtime.Scheduler
	mode  Mode

	pendingSend   []cm.FlowID
	pendingStatus map[cm.FlowID]cm.Status
	sendCBs       map[cm.FlowID]cm.SendCallback
	updateCBs     map[cm.FlowID]cm.UpdateCallback

	dispatchTimer     simtime.EventTimer
	dispatchScheduled bool
	signalHandler     func()
	signalPending     bool

	// epoch is the CM restart epoch this library last synchronized with;
	// every client call compares it against cm.Epoch() and runs the re-sync
	// protocol on mismatch. onRestart is the application's re-sync hook.
	epoch     int64
	onRestart func()

	// injector, when set, interposes on the kernel→user notification path
	// (shared per host). updateSeq stamps DeliverUpdate generations and
	// queuedSeq remembers the newest generation queued per flow, so a
	// delayed status cannot overwrite a fresher one.
	injector  *Injector
	updateSeq map[cm.FlowID]uint64
	queuedSeq map[cm.FlowID]uint64

	stats Stats
}

// New creates a library instance bound to a CM and to the scheduler of the
// CM's host (used to schedule automatic dispatches in ModeAuto and
// fault-delayed notifications).
func New(c *cm.CM, sched *simtime.Scheduler, mode Mode) *Lib {
	if c == nil || sched == nil {
		panic("libcm: New requires a CM and a scheduler")
	}
	l := &Lib{
		cm:            c,
		sched:         sched,
		mode:          mode,
		pendingStatus: make(map[cm.FlowID]cm.Status),
		sendCBs:       make(map[cm.FlowID]cm.SendCallback),
		updateCBs:     make(map[cm.FlowID]cm.UpdateCallback),
		epoch:         c.Epoch(),
		updateSeq:     make(map[cm.FlowID]uint64),
		queuedSeq:     make(map[cm.FlowID]uint64),
	}
	l.dispatchTimer.Init(sched, simtime.KindCMNotify, fireDispatch, l)
	// Creating the per-application control socket costs one system call.
	l.stats.Syscalls++
	return l
}

func fireDispatch(x any) {
	l := x.(*Lib)
	l.dispatchScheduled = false
	l.Dispatch()
}

// Stats returns a copy of the boundary-crossing counters.
func (l *Lib) Stats() Stats { return l.stats }

// CM returns the underlying Congestion Manager (used by in-process helpers
// such as the congestion-controlled UDP socket).
func (l *Lib) CM() *cm.CM { return l.cm }

// SetSignalHandler registers the handler invoked in ModeSignal when the
// control socket becomes ready.
func (l *Lib) SetSignalHandler(fn func()) { l.signalHandler = fn }

// SetRestartHandler registers the application's re-sync hook, invoked after
// the library detects a CM restart and has cleared its own state. The handler
// is expected to re-open flows and re-register callbacks (old FlowIDs are
// dead; calls on them count as StaleFlowCalls in the CM).
func (l *Lib) SetRestartHandler(fn func()) { l.onRestart = fn }

// SetInjector installs a notification fault injector (nil removes it). The
// same injector is shared by all library instances of one host.
func (l *Lib) SetInjector(in *Injector) { l.injector = in }

// checkEpoch runs at every client call: if the CM restarted since the library
// last spoke to it, all queued notifications and cached registrations refer
// to dead flow handles and are discarded, and the application's restart
// handler is invoked to re-open and re-register. The epoch is synchronized
// *before* the handler runs so the handler's own calls do not recurse.
func (l *Lib) checkEpoch() {
	e := l.cm.Epoch()
	if e == l.epoch {
		return
	}
	l.epoch = e
	l.stats.Resyncs++
	l.pendingSend = nil
	l.pendingStatus = make(map[cm.FlowID]cm.Status)
	l.sendCBs = make(map[cm.FlowID]cm.SendCallback)
	l.updateCBs = make(map[cm.FlowID]cm.UpdateCallback)
	l.updateSeq = make(map[cm.FlowID]uint64)
	l.queuedSeq = make(map[cm.FlowID]uint64)
	if l.onRestart != nil {
		l.onRestart()
	}
}

// Open creates a CM flow whose callbacks are delivered through this library
// instance (cm_open via libcm).
func (l *Lib) Open(proto netsim.Protocol, src, dst netsim.Addr) cm.FlowID {
	l.checkEpoch()
	l.stats.Syscalls++
	f := l.cm.Open(proto, src, dst)
	l.cm.SetDispatcher(f, l)
	return f
}

// Close releases the flow (cm_close).
func (l *Lib) Close(f cm.FlowID) {
	l.checkEpoch()
	l.stats.Syscalls++
	l.cm.Close(f)
	delete(l.sendCBs, f)
	delete(l.updateCBs, f)
	delete(l.pendingStatus, f)
	delete(l.updateSeq, f)
	delete(l.queuedSeq, f)
}

// MTU returns the flow's MTU (cm_mtu); the value is cached by real libcm so
// no crossing is charged.
func (l *Lib) MTU(f cm.FlowID) int { return l.cm.MTU(f) }

// RegisterSend registers the application's cmapp_send callback.
func (l *Lib) RegisterSend(f cm.FlowID, cb cm.SendCallback) {
	l.checkEpoch()
	l.sendCBs[f] = cb
	l.cm.RegisterSend(f, cb)
}

// RegisterUpdate registers the application's cmapp_update callback.
func (l *Lib) RegisterUpdate(f cm.FlowID, cb cm.UpdateCallback) {
	l.checkEpoch()
	l.updateCBs[f] = cb
	l.cm.RegisterUpdate(f, cb)
}

// Request asks for permission to send (cm_request); one ioctl.
func (l *Lib) Request(f cm.FlowID) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.Request(f)
}

// BulkRequest requests permission for several flows with a single ioctl
// (cm_bulk_request, §5 Optimizations).
func (l *Lib) BulkRequest(flows []cm.FlowID) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.BulkRequest(flows)
}

// Notify charges an actual transmission to the flow (cm_notify); one ioctl.
// Connected sockets normally do not need it because the kernel attributes the
// transmission automatically — this is the extra cost of the ALF/noconnect
// variant in Table 1.
func (l *Lib) Notify(f cm.FlowID, nsent int) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.Notify(f, nsent)
}

// Update reports receiver feedback (cm_update); one ioctl.
func (l *Lib) Update(f cm.FlowID, nsent, nrecd int, mode cm.LossMode, rtt time.Duration) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.Update(f, nsent, nrecd, mode, rtt)
}

// BulkUpdate reports feedback for several flows with a single ioctl.
func (l *Lib) BulkUpdate(updates []cm.UpdateArgs) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.BulkUpdate(updates)
}

// Query reads the flow's network state (cm_query); one ioctl.
func (l *Lib) Query(f cm.FlowID) (cm.Status, bool) {
	l.checkEpoch()
	l.stats.Ioctls++
	return l.cm.Query(f)
}

// Thresh sets rate-callback thresholds (cm_thresh); one ioctl.
func (l *Lib) Thresh(f cm.FlowID, down, up float64) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.Thresh(f, down, up)
}

// SetWeight sets the flow's scheduling weight; one ioctl.
func (l *Lib) SetWeight(f cm.FlowID, w float64) {
	l.checkEpoch()
	l.stats.Ioctls++
	l.cm.SetWeight(f, w)
}

// DeliverSend implements cm.Dispatcher: the kernel marks the control socket's
// write bit and records the flow as ready to send. The application callback
// runs later, when the socket is drained. A fault injector may drop the
// notification (the grant dies and is reclaimed by the CM's grant timeout; a
// robust application re-requests) or delay it.
func (l *Lib) DeliverSend(f cm.FlowID, _ cm.Sender) {
	if l.injector != nil {
		switch l.injector.verdict() {
		case faultDrop:
			l.injector.stats.DroppedSends++
			return
		case faultDelay:
			l.injector.stats.DelayedSends++
			l.sched.Schedule(l.sched.Now()+l.injector.delay, simtime.KindCMNotify, func(any) {
				l.pendingSend = append(l.pendingSend, f)
				l.becameReady()
			}, nil)
			return
		}
	}
	l.pendingSend = append(l.pendingSend, f)
	l.becameReady()
}

// DeliverUpdate implements cm.Dispatcher: the kernel marks the exception bit;
// only the most recent status matters if several changes pile up (§2.2.2).
// Deliveries are stamped with a per-flow generation so that a fault-delayed
// status arriving after a newer one is discarded as stale rather than
// applied over it.
func (l *Lib) DeliverUpdate(f cm.FlowID, st cm.Status, _ cm.UpdateCallback) {
	l.updateSeq[f]++
	seq := l.updateSeq[f]
	if l.injector != nil {
		switch l.injector.verdict() {
		case faultDrop:
			l.injector.stats.DroppedUpdates++
			return
		case faultDelay:
			l.injector.stats.DelayedUpdates++
			l.sched.Schedule(l.sched.Now()+l.injector.delay, simtime.KindCMNotify, func(any) {
				l.queueStatus(f, st, seq)
			}, nil)
			return
		}
	}
	l.queueStatus(f, st, seq)
}

// queueStatus admits one status delivery to the pending map unless a newer
// generation for the flow has already been queued (stale reordered delivery).
func (l *Lib) queueStatus(f cm.FlowID, st cm.Status, seq uint64) {
	if seq < l.queuedSeq[f] {
		if l.injector != nil {
			l.injector.stats.StaleUpdatesDropped++
		}
		return
	}
	l.queuedSeq[f] = seq
	l.pendingStatus[f] = st
	l.becameReady()
}

func (l *Lib) becameReady() {
	switch l.mode {
	case ModeAuto:
		if !l.dispatchScheduled {
			l.dispatchScheduled = true
			l.dispatchTimer.Reset(0)
		}
	case ModeSignal:
		if l.signalHandler != nil && !l.signalPending {
			l.signalPending = true
			l.stats.Signals++
			l.signalHandler()
		}
	case ModeManual:
		// The application will poll Ready/Dispatch on its own schedule.
	}
}

// Ready reports whether the control socket would select as readable: some
// flow may send or some flow's network conditions changed. The check itself
// is free (the descriptor is already in the application's select set).
func (l *Lib) Ready() bool {
	return len(l.pendingSend) > 0 || len(l.pendingStatus) > 0
}

// Dispatch drains the control socket and invokes application callbacks:
// one select wake-up, one ioctl returning every flow that may send (batched),
// and one ioctl per flow whose status changed. It returns the number of
// callbacks delivered.
func (l *Lib) Dispatch() int {
	l.checkEpoch()
	l.signalPending = false
	if !l.Ready() {
		return 0
	}
	l.stats.Dispatches++
	l.stats.Selects++

	delivered := 0

	// Drain the send list with a single ioctl.
	if len(l.pendingSend) > 0 {
		l.stats.Ioctls++
		batch := l.pendingSend
		l.pendingSend = nil
		if len(batch) > l.stats.MaxSendBatch {
			l.stats.MaxSendBatch = len(batch)
		}
		for _, f := range batch {
			cb := l.sendCBs[f]
			if cb == nil {
				continue
			}
			l.stats.SendCallbacks++
			delivered++
			cb(f)
		}
	}

	// Status updates: one ioctl per flow, returning only the current state.
	// Flows drain in ID order so delivery order is deterministic (map
	// iteration order must not leak into the simulation).
	if len(l.pendingStatus) > 0 {
		statuses := l.pendingStatus
		l.pendingStatus = make(map[cm.FlowID]cm.Status)
		order := make([]cm.FlowID, 0, len(statuses))
		for f := range statuses {
			order = append(order, f)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, f := range order {
			l.stats.Ioctls++
			cb := l.updateCBs[f]
			if cb == nil {
				continue
			}
			l.stats.UpdateCallbacks++
			delivered++
			cb(f, statuses[f])
		}
	}

	// Callbacks may have generated new notifications (for example a send
	// callback that requested again and was granted immediately); in auto
	// mode schedule another pass rather than recursing.
	if l.Ready() {
		l.becameReady()
	}
	return delivered
}

var _ cm.Dispatcher = (*Lib)(nil)
