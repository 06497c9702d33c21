// The one executor of a scenario: the topology is partitioned into K shards
// (planShards), each shard owns a private simtime.Scheduler driving its
// hosts, links and CMs, and the shards advance in conservative windows
// separated by barriers. A serial build is the K = 1 case: one shard, no cut
// links, no lookahead limit, so its windows end only at barrier instants and
// a run without dynamics, observers or snapshots is one window.
//
// The synchronization protocol is the classic conservative (window/barrier)
// scheme of parallel discrete-event simulation, specialised to this
// simulator's one guarantee: every cross-shard interaction is a packet on a
// link whose propagation delay is at least the lookahead L. All shards
// execute events in [W, W') concurrently, where W' - W <= L; a packet handed
// off during the window started serialising at some t >= W (the link hands it
// over as it goes on the wire), so it arrives at or after
// t + delay >= W + L >= W' — never inside the window that produced it. The
// coordinator executes shard 0's window itself and shards 1..K-1 run on
// worker goroutines. At the barrier the coordinator advances every clock to
// W', drains the handoff queues into the destination schedulers (InjectAt,
// which panics if the invariant ever fails), fires the barrier actions due
// exactly at W' (probes, dynamics events, snapshots: observers.go), and opens
// the next window.
//
// Determinism is the design constraint. Each injected delivery carries the
// sender-side end of serialisation as its insertion stamp and its link
// direction's sort key, and the scheduler orders same-timestamp events by
// (stamp, key, seq) — which is exactly the order a single shared scheduler
// produces (it keys its local hand-ups the same way), so a K-shard run
// executes every host's events in the one-shard order and the Result is
// byte-identical to the serial run (enforced by TestShardedRuns* and
// TestDigestLedger). Handoff queues are single-producer/single-consumer
// slices: only the source shard appends (during a window), only the
// coordinator drains (at a barrier), and the window channels provide the
// happens-before edges.
package scenario

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/simtime"
)

// shardMsg is one cross-shard packet delivery in flight between a source
// shard's window and the destination shard's next window.
type shardMsg struct {
	link   *netsim.Link
	pkt    *netsim.Packet
	arrive time.Duration // destination-side delivery time
	sent   time.Duration // sender-side end of serialisation (stamp)
	key    uint32        // link-direction sort key (Link.SortKey)
	sub    uint32        // link-local delivery sequence (sub-sequence tie-break)
	to     *shardState   // destination shard, set when injected
}

// handoff is the SPSC queue for one (source shard, destination shard) pair,
// padded to a cache line: shards append to neighbouring queues concurrently.
type handoff struct {
	msgs []shardMsg
	_    [64 - unsafe.Sizeof([]shardMsg{})]byte
}

// windowReq asks a shard to execute one synchronization window.
type windowReq struct {
	until     time.Duration
	inclusive bool // last window of a RunUntil: run events at exactly until too
}

// shardState is one shard: its scheduler, its worker goroutine's channels
// (shards 1..K-1; the coordinator runs shard 0 itself), and the recycled
// injection arguments for deliveries into this shard.
type shardState struct {
	sched   *simtime.Scheduler
	running atomic.Bool // true while the shard executes a window
	cmd     chan windowReq
	done    chan struct{}
	free    []*shardMsg // recycled InjectAt arguments, owned by this shard

	// tl, when set by EnableExecutionTimeline, records one wall-clock span
	// per executed window on this shard's lane. Each lane is written only by
	// the goroutine executing its shard, so no synchronization beyond the
	// window channels.
	tl   *probe.Timeline
	lane int
	// prof, when armed (EnableProfiling), is this shard's per-event-kind
	// profiler; lastProf is the snapshot at the previous window boundary, so
	// each window span carries the per-kind cost delta of exactly that
	// window. Written only while this shard executes a window.
	prof     *simtime.Profile
	lastProf *simtime.ProfileSnapshot
}

// loop is a worker goroutine: it executes windows until the coordinator
// closes cmd at the end of a RunUntil.
func (ss *shardState) loop() {
	for req := range ss.cmd {
		ss.execute(req)
		ss.done <- struct{}{}
	}
}

// execute runs one window on this shard's scheduler.
func (ss *shardState) execute(req windowReq) {
	ss.running.Store(true)
	var t0, v0 time.Duration
	if ss.tl != nil {
		t0, v0 = ss.tl.Since(), ss.sched.Now()
	}
	if req.inclusive {
		ss.sched.RunUntil(req.until)
	} else {
		ss.sched.RunUntilBefore(req.until)
	}
	if ss.tl != nil {
		span := probe.Span{
			Name: "window", Start: t0, Dur: ss.tl.Since() - t0,
			VirtStart: v0, VirtEnd: req.until,
		}
		if ss.prof != nil {
			snap := ss.prof.Snapshot()
			span.Kinds = kindCosts(snap.Delta(*ss.lastProf))
			*ss.lastProf = snap
		}
		ss.tl.Add(ss.lane, span)
	}
	ss.running.Store(false)
}

// getMsg pops a recycled injection argument (or allocates one). Called by the
// coordinator at barriers; deliverMsg recycles the argument when the
// delivery runs. The two never run concurrently — barriers exclude windows.
func (ss *shardState) getMsg() *shardMsg {
	if n := len(ss.free); n > 0 {
		m := ss.free[n-1]
		ss.free = ss.free[:n-1]
		return m
	}
	return new(shardMsg)
}

// deliverMsg is the event function of an injected cross-shard delivery: it
// hands the packet up on the destination shard and recycles the argument.
func deliverMsg(x any) {
	m := x.(*shardMsg)
	ss := m.to
	m.link.DeliverRemote(m.pkt, ss.sched.Now())
	*m = shardMsg{}
	ss.free = append(ss.free, m)
}

// shardRun coordinates the K shards of one simulation and keeps the barrier
// schedule between RunUntil calls.
type shardRun struct {
	plan    shardPlan
	states  []*shardState
	queues  []handoff   // [source shard * nshards + destination shard]
	control atomic.Bool // single-threaded coordinator phase (build, barriers)

	// last is the latest barrier instant. Deliveries handed off since then
	// arrive at or after last + lookahead, which bounds the next window even
	// when a RunUntil ended between barriers.
	last time.Duration
	// actions is the barrier schedule in rank order (observers.go): every
	// instant an action is due at is a barrier, where the action fires.
	actions []barrierAction
	// final, when set, runs once the run has executed the events at end: the
	// snapshot due exactly at Spec.Duration, which equals the end state (see
	// probes.go).
	final func(at time.Duration)
	end   time.Duration
	// timeline, when set, gets one "barrier" span on the coordinator lane
	// (index nshards) per synchronization barrier.
	timeline *probe.Timeline
}

func newShardRun(plan shardPlan) *shardRun {
	n := plan.nshards
	sr := &shardRun{plan: plan, states: make([]*shardState, n), queues: make([]handoff, n*n)}
	sr.control.Store(true)
	for i := range sr.states {
		sr.states[i] = &shardState{sched: simtime.NewScheduler()}
		if i > 0 {
			sr.states[i].done = make(chan struct{}, 1)
		}
	}
	return sr
}

// ownerCheck returns the ownership predicate for components living on shard
// i: code may run during shard i's window or any single-threaded coordinator
// phase (build, workload start, barriers, collection). The check is phase-
// based, not caller-identity-based (Go deliberately hides goroutine
// identity, and the hot paths cannot afford more): it catches stray drives
// from outside the execution protocol — a leaked callback after shutdown, a
// test poking a built Sim mid-run, a delivery while the owning shard is
// quiescent — but a wrong-shard call made while the owning shard happens to
// be mid-window passes undetected.
func (sr *shardRun) ownerCheck(i int) func() bool {
	ss := sr.states[i]
	return func() bool { return ss.running.Load() || sr.control.Load() }
}

// connectRemote installs the cross-shard handoff on a directional link whose
// transmitter lives on shard src and whose receiver lives on shard dst.
func (sr *shardRun) connectRemote(l *netsim.Link, src, dst int) {
	q := &sr.queues[src*sr.plan.nshards+dst]
	key := l.SortKey()
	l.SetRemoteDeliver(func(pkt *netsim.Packet, arrive, sent time.Duration, seq uint32) {
		q.msgs = append(q.msgs, shardMsg{link: l, pkt: pkt, arrive: arrive, sent: sent, key: key, sub: seq})
	})
}

// window runs every shard up to (or through, if inclusive) until — shard 0
// on the calling goroutine, the others on their workers — and returns when
// all of them are quiescent again.
//
// A woken worker waits in its waker's run slot, which an idle P steals only
// after a pause, so the coordinator yields its P to the workers before it
// takes shard 0 up from the global queue; without the yield every window of
// grid64_cm_shards2 starts its second shard late (-30% sim_pkts_per_s on two
// cores). The window channels hold one message each, so neither side blocks
// on a send.
func (sr *shardRun) window(until time.Duration, inclusive bool) {
	req := windowReq{until: until, inclusive: inclusive}
	sr.control.Store(false)
	for _, ss := range sr.states[1:] {
		ss.cmd <- req
	}
	if len(sr.states) > 1 {
		runtime.Gosched()
	}
	sr.states[0].execute(req)
	for _, ss := range sr.states[1:] {
		<-ss.done
	}
	sr.control.Store(true)
}

// drain moves every pending cross-shard delivery into its destination
// scheduler. Sources are drained in shard order and each queue in FIFO
// order, which — together with the (time, stamp, key, sub, seq) heap order —
// pins the injection order deterministically.
//
// Residual tie rule: when an injected delivery ties a competitor on BOTH
// arrival time and insertion stamp, the link-direction sort key decides
// (Link.SortKey) — the serial run schedules its hand-ups with the same key,
// so both executions break the double tie by link identity without either
// observing the other's insertion order. (Fat-tree cross-pod streams really
// produce such ties: flows dialing in lockstep collide at a core at shared
// nanosecond instants, pinned by routeflap in TestShardedRunsAreByteIdentical.)
// Two same-instant deliveries on the *same* link direction order by the
// link-local delivery sequence (shardMsg.sub, assigned by the sender in
// serialisation order).
func (sr *shardRun) drain() int {
	n := 0
	for dst, ds := range sr.states {
		for src := range sr.states {
			q := &sr.queues[src*sr.plan.nshards+dst]
			for i := range q.msgs {
				m := ds.getMsg()
				*m = q.msgs[i]
				m.to = ds
				ds.sched.InjectAt(m.arrive, m.sent, m.key, m.sub, simtime.KindPktDeliver, deliverMsg, m)
			}
			n += len(q.msgs)
			q.msgs = q.msgs[:0]
		}
	}
	return n
}

// nextBarrier returns the first barrier instant up to t: the end of the
// lookahead window opened at the last barrier (sharded builds only) or the
// earliest instant a barrier action is due. ok is false when the window can
// run straight through t.
func (sr *shardRun) nextBarrier(t time.Duration) (at time.Duration, ok bool) {
	at = t + 1
	if la := sr.plan.lookahead; la > 0 {
		at = sr.last + la
	}
	for _, a := range sr.actions {
		at = min(at, a.at)
	}
	return at, at <= t
}

// barrier runs with every shard stopped at at, every event before it
// executed and none at it: clocks advance, cross-shard deliveries drain, and
// the actions due at at fire in rank order.
func (sr *shardRun) barrier(at time.Duration) {
	sr.last = at
	var t0 time.Duration
	if sr.timeline != nil {
		t0 = sr.timeline.Since()
	}
	for _, ss := range sr.states {
		ss.sched.AdvanceTo(at)
	}
	injected := sr.drain()
	if sr.timeline != nil {
		sr.timeline.Add(sr.plan.nshards, probe.Span{
			Name: "barrier", Start: t0, Dur: sr.timeline.Since() - t0,
			VirtStart: at, VirtEnd: at, Count: injected,
		})
	}
	for i := range sr.actions {
		if a := &sr.actions[i]; a.at == at {
			a.at = a.fire(at)
		}
	}
}

// runUntil advances the simulation to t, executing every event at or before
// t: windows up to each barrier instant, then one inclusive window through
// t. Cross-shard deliveries handed off in that last window wait in their
// queues for the next barrier; they cannot arrive before t + lookahead.
func (sr *shardRun) runUntil(t time.Duration) {
	if sr.final != nil && t > sr.end {
		sr.runUntil(sr.end) // the end-of-run snapshot sees the state at end
	}
	for _, ss := range sr.states[1:] {
		ss.cmd = make(chan windowReq, 1)
		go ss.loop()
	}
	for {
		at, ok := sr.nextBarrier(t)
		if !ok {
			break
		}
		sr.window(at, false)
		sr.barrier(at)
	}
	sr.window(t, true)
	if sr.final != nil && t == sr.end {
		sr.final(t)
		sr.final = nil
	}
	for _, ss := range sr.states[1:] {
		close(ss.cmd)
	}
}

// release drops the cross-shard deliveries still queued at the end of the
// run, which would arrive after it, and returns their packets to the pool.
func (sr *shardRun) release() {
	for j := range sr.queues {
		q := &sr.queues[j]
		for i := range q.msgs {
			q.msgs[i].pkt.Release()
		}
		q.msgs = nil
	}
}
