// Sharded single-simulation execution: one huge scenario is partitioned into
// K shards (planShards), each shard owns a private simtime.Scheduler driving
// its hosts, links and CMs on its own worker goroutine, and the shards
// advance in conservative lookahead windows.
//
// The synchronization protocol is the classic conservative (window/barrier)
// scheme of parallel discrete-event simulation, specialised to this
// simulator's one guarantee: every cross-shard interaction is a packet on a
// link whose propagation delay is at least the lookahead L. All shards
// execute events in [W, W') concurrently, where W' - W <= L; a packet handed
// off during the window started serialising at some t >= W (the link hands it
// over as it goes on the wire), so it arrives at or after
// t + delay >= W + L >= W' — never inside the window that produced it. At the
// barrier the coordinator advances every clock to W', drains the handoff
// queues into the destination schedulers (InjectAt, which panics if the
// invariant ever fails), fires any network-dynamics events scheduled exactly
// at W', and opens the next window.
//
// Determinism is the design constraint. Each injected delivery carries the
// sender-side end of serialisation as its insertion stamp and its link
// direction's sort key, and the scheduler orders same-timestamp events by
// (stamp, key, seq) — which is exactly the order a single shared scheduler
// produces (it keys its local hand-ups the same way), so a K-shard run
// executes every host's events in the serial order and the Result is
// byte-identical to the serial run (enforced by TestShardedRuns*).
// Handoff queues are single-producer/single-consumer slices: only the source
// shard's worker appends (during a window), only the coordinator drains (at a
// barrier), and the window channels provide the happens-before edges.
package scenario

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/simtime"
)

// shardMsg is one cross-shard packet delivery in flight between a source
// shard's window and the destination shard's next window.
type shardMsg struct {
	link     *netsim.Link
	pkt, dup *netsim.Packet
	arrive   time.Duration // destination-side delivery time
	sent     time.Duration // sender-side end of serialisation (stamp)
	key      uint32        // link-direction sort key (Link.SortKey)
	sub      uint32        // link-local delivery sequence (sub-sequence tie-break)
}

// handoff is the SPSC queue for one (source shard, destination shard) pair.
type handoff struct {
	msgs []shardMsg
}

// windowReq asks a shard worker to execute one synchronization window.
type windowReq struct {
	until     time.Duration
	inclusive bool // final window: run events at exactly until as RunUntil does
}

// shardState is one shard: its scheduler, its worker goroutine's channels,
// and the recycled injection arguments for deliveries into this shard.
type shardState struct {
	sched   *simtime.Scheduler
	running atomic.Bool // true while the worker executes a window
	cmd     chan windowReq
	done    chan struct{}
	free    []*shardMsg // recycled InjectAt arguments, owned by this shard
	fire    func(any)   // built once: delivers a *shardMsg on this shard

	// tl, when set by EnableExecutionTimeline, records one wall-clock span
	// per executed window on this shard's lane. Each lane is written only by
	// its own worker, so no synchronization beyond the window channels.
	tl   *probe.Timeline
	lane int
	// prof, when armed (EnableProfiling), is this shard's per-event-kind
	// profiler; lastProf is the snapshot at the previous window boundary, so
	// each window span carries the per-kind cost delta of exactly that
	// window. Written only by this shard's worker during windows.
	prof     *simtime.Profile
	lastProf simtime.ProfileSnapshot
}

func (ss *shardState) loop() {
	for req := range ss.cmd {
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
				span.Kinds = kindCosts(snap.Delta(ss.lastProf))
				ss.lastProf = snap
			}
			ss.tl.Add(ss.lane, span)
		}
		ss.running.Store(false)
		ss.done <- struct{}{}
	}
}

// getMsg pops a recycled injection argument (or allocates one). Called by the
// coordinator at barriers; recycleMsg is called by the shard worker when the
// delivery fires. The two never run concurrently — barriers exclude windows.
func (ss *shardState) getMsg() *shardMsg {
	if n := len(ss.free); n > 0 {
		m := ss.free[n-1]
		ss.free = ss.free[:n-1]
		return m
	}
	return new(shardMsg)
}

// shardRun coordinates the K shard workers of one sharded simulation.
type shardRun struct {
	plan    shardPlan
	states  []*shardState
	queues  [][]*handoff // [source shard][destination shard]
	control atomic.Bool  // single-threaded coordinator phase (build, barriers)

	// snap, when set, captures a mid-run snapshot at every multiple of
	// snapEvery; the coordinator folds those instants into the barrier
	// schedule so every shard is quiescent exactly then (see probes.go).
	snapEvery time.Duration
	snap      func(at time.Duration)
	// obs/obsFire realise the barrier-observation schedule (observers.go):
	// each obs instant becomes a barrier, and obsFire runs after the drain —
	// before same-instant dynamics events and snapshots, matching the serial
	// path's RunUntilBefore placement.
	obs     []time.Duration
	obsFire func(at time.Duration)
	// timeline, when set, gets one "barrier" span on the coordinator lane
	// (index nshards) per synchronization barrier.
	timeline *probe.Timeline
}

func newShardRun(plan shardPlan) *shardRun {
	sr := &shardRun{plan: plan}
	sr.control.Store(true)
	sr.states = make([]*shardState, plan.nshards)
	sr.queues = make([][]*handoff, plan.nshards)
	for i := range sr.states {
		ss := &shardState{
			sched: simtime.NewScheduler(),
			cmd:   make(chan windowReq),
			done:  make(chan struct{}),
		}
		ss.fire = func(x any) {
			m := x.(*shardMsg)
			m.link.DeliverRemote(m.pkt, m.dup, ss.sched.Now())
			*m = shardMsg{}
			ss.free = append(ss.free, m)
		}
		sr.states[i] = ss
		sr.queues[i] = make([]*handoff, plan.nshards)
		for j := range sr.queues[i] {
			sr.queues[i][j] = &handoff{}
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
	q := sr.queues[src][dst]
	key := l.SortKey()
	l.SetRemoteDeliver(func(pkt, dup *netsim.Packet, arrive, sent time.Duration, seq uint32) {
		q.msgs = append(q.msgs, shardMsg{link: l, pkt: pkt, dup: dup, arrive: arrive, sent: sent, key: key, sub: seq})
	})
}

// window runs every shard up to (or through, if inclusive) until, in
// parallel, and returns when all workers are quiescent again.
func (sr *shardRun) window(until time.Duration, inclusive bool) {
	sr.control.Store(false)
	for _, ss := range sr.states {
		ss.cmd <- windowReq{until: until, inclusive: inclusive}
	}
	for _, ss := range sr.states {
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
// serialisation order) — explicit since PR 10, where it used to lean on seq
// (scheduler insertion order) plus the queue's FIFO discipline.
func (sr *shardRun) drain() int {
	n := 0
	for dst, ds := range sr.states {
		for src := range sr.states {
			q := sr.queues[src][dst]
			for i := range q.msgs {
				m := ds.getMsg()
				*m = q.msgs[i]
				ds.sched.InjectAt(m.arrive, m.sent, m.key, m.sub, simtime.KindPktDeliver, ds.fire, m)
			}
			n += len(q.msgs)
			q.msgs = q.msgs[:0]
		}
	}
	return n
}

// run executes the sharded simulation for duration d, firing the dynamics
// timeline (if any) at barriers. It matches the serial path's
// RunUntil(duration): the final window is inclusive so events scheduled at
// exactly d still execute.
func (sr *shardRun) run(d time.Duration, tl *dynamics.Timeline, events []dynamics.Event) {
	for _, ss := range sr.states {
		go ss.loop()
	}
	// Barrier times of the dynamics timeline: windows never straddle an
	// event, so each event fires with every shard stopped exactly at its
	// timestamp, before any same-timestamp packet event — the order the
	// serial scheduler produces for the timeline's build-time insertions.
	var dyn []time.Duration
	for _, ev := range events {
		if ev.At > 0 && ev.At <= d {
			dyn = append(dyn, ev.At)
		}
	}
	sort.Slice(dyn, func(i, j int) bool { return dyn[i] < dyn[j] })

	// Snapshot instants join the barrier schedule like dynamics events:
	// windows never straddle one, so the capture sees every shard stopped
	// exactly at its timestamp. A snapshot due at exactly d waits for the
	// final inclusive window, matching the serial path where the snapshot
	// event at d fires within RunUntil(d).
	nextSnap := time.Duration(0)
	if sr.snapEvery > 0 && sr.snap != nil {
		nextSnap = sr.snapEvery
	}
	obs := sr.obs // sorted, deduped, within (0, d] by construction

	w := time.Duration(0)
	for w < d {
		end := d
		if sr.plan.lookahead < d-w {
			end = w + sr.plan.lookahead
		}
		for len(dyn) > 0 && dyn[0] <= w {
			dyn = dyn[1:]
		}
		if len(dyn) > 0 && dyn[0] < end {
			end = dyn[0]
		}
		for len(obs) > 0 && obs[0] <= w {
			obs = obs[1:]
		}
		if len(obs) > 0 && obs[0] < end {
			end = obs[0]
		}
		if nextSnap > 0 && nextSnap > w && nextSnap < end {
			end = nextSnap
		}
		sr.window(end, false)
		var t0 time.Duration
		if sr.timeline != nil {
			t0 = sr.timeline.Since()
		}
		for _, ss := range sr.states {
			ss.sched.AdvanceTo(end)
		}
		injected := sr.drain()
		if sr.timeline != nil {
			sr.timeline.Add(sr.plan.nshards, probe.Span{
				Name: "barrier", Start: t0, Dur: sr.timeline.Since() - t0,
				VirtStart: end, VirtEnd: end, Count: injected,
			})
		}
		if sr.obsFire != nil && len(obs) > 0 && obs[0] == end {
			sr.obsFire(end)
			obs = obs[1:]
		}
		if tl != nil && len(dyn) > 0 && dyn[0] == end {
			tl.Advance(end)
		}
		if nextSnap > 0 && nextSnap == end && end < d {
			sr.snap(end)
			nextSnap += sr.snapEvery
		}
		w = end
	}
	sr.window(d, true)
	if nextSnap > 0 && nextSnap == d {
		sr.snap(d)
	}
	for _, ss := range sr.states {
		close(ss.cmd)
	}
	// Deliveries scheduled past the end of the run never execute; release
	// their packets so the pool gets them back.
	for _, row := range sr.queues {
		for _, q := range row {
			for i := range q.msgs {
				q.msgs[i].pkt.Release()
				if q.msgs[i].dup != nil {
					q.msgs[i].dup.Release()
				}
			}
			q.msgs = nil
		}
	}
}
