package simtime

import "time"

// Kind classifies a scheduled event for the optional per-kind wall-clock
// profiler. Call sites tag events through Schedule, InjectAt and
// EventTimer.Init; At and After schedule KindOther. The kind never affects
// event ordering or execution — it exists purely so an armed profiler can
// attribute where a run's real time goes (link delivery vs. CM grants vs.
// route recomputation, etc.).
type Kind uint8

const (
	// KindOther is the default for untagged events.
	KindOther Kind = iota
	// KindPktTransmit is a link finishing the serialization of a packet with
	// another one waiting: the tx-done event exists only then, so its count
	// over KindPktDeliver's is the share of packet-hops that queued.
	KindPktTransmit
	// KindPktDeliver is a packet hand-up at the far end of a link (including
	// cross-shard injected deliveries).
	KindPktDeliver
	// KindCMGrant is Congestion Manager scheduler work (grant callbacks,
	// background timers).
	KindCMGrant
	// KindCMNotify is libcm feedback machinery (delayed notify/update
	// delivery, notify-fault injection).
	KindCMNotify
	// KindRouteUpdate is routing control-plane work (advertisement exchange,
	// triggered updates, convergence timers).
	KindRouteUpdate
	// KindProbeSample has no producer: probes sample at executor barriers,
	// not as scheduler events. It stays, always zero, because cmperf's
	// metric set lists simtime.kind.probe-sample.* and iterates NumKinds;
	// it goes when that set next changes.
	KindProbeSample
	// KindDynamics is scheduled network-dynamics work (Gilbert-Elliott
	// ticks); a scenario's dynamics events are applied at barriers between
	// events, not scheduled.
	KindDynamics
	// KindWorkloadApp is application/transport workload machinery (flow
	// starts, TCP timers, app-layer timers).
	KindWorkloadApp

	// NumKinds is the number of kinds; valid kinds are in [0, NumKinds).
	NumKinds
)

var kindNames = [NumKinds]string{
	KindOther:       "other",
	KindPktTransmit: "pkt-transmit",
	KindPktDeliver:  "pkt-deliver",
	KindCMGrant:     "cm-grant",
	KindCMNotify:    "cm-notify",
	KindRouteUpdate: "route-update",
	KindProbeSample: "probe-sample",
	KindDynamics:    "dynamics-event",
	KindWorkloadApp: "workload-app",
}

// String returns the stable, hyphenated name of the kind (used in reports,
// timelines and Result.Perf).
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "invalid"
}

// KindAgg is the profiler's per-kind aggregate: how many events of the kind
// fired and what they cost in wall-clock time.
type KindAgg struct {
	Count   uint64
	TotalNs int64
	MaxNs   int64
}

// Profile is the per-scheduler event-kind profiler. It is armed with
// Scheduler.EnableProfile; a disarmed scheduler pays a single nil check per
// fired event and nothing else (the AllocsPerRun gates cover this). An armed
// profiler measures wall-clock time around each callback and accumulates it
// into the fired event's kind — it observes execution, never simulation
// state, so arming it cannot perturb a deterministic run.
type Profile struct {
	agg [NumKinds]KindAgg
}

// record attributes one fired event's elapsed wall-clock time. Called from
// Scheduler.Step only.
func (p *Profile) record(k Kind, ns int64) {
	a := &p.agg[k]
	a.Count++
	a.TotalNs += ns
	if ns > a.MaxNs {
		a.MaxNs = ns
	}
}

// Snapshot returns a copy of the current per-kind aggregates. Snapshots are
// plain values; subtracting two (Delta) yields the cost of the work between
// them, which is how shard-window timeline breakdowns are computed.
func (p *Profile) Snapshot() ProfileSnapshot { return p.agg }

// ProfileSnapshot is a point-in-time copy of a Profile's aggregates, indexed
// by Kind.
type ProfileSnapshot [NumKinds]KindAgg

// Events returns the total number of profiled events across all kinds.
func (s ProfileSnapshot) Events() uint64 {
	var n uint64
	for i := range s {
		n += s[i].Count
	}
	return n
}

// TotalNs returns the total attributed wall-clock nanoseconds across kinds.
func (s ProfileSnapshot) TotalNs() int64 {
	var ns int64
	for i := range s {
		ns += s[i].TotalNs
	}
	return ns
}

// Delta returns the per-kind difference s - prev, where prev is an earlier
// snapshot of the same profile. Counts and totals subtract; MaxNs keeps the
// cumulative maximum from s (a windowed maximum is not recoverable from two
// cumulative snapshots).
func (s ProfileSnapshot) Delta(prev ProfileSnapshot) ProfileSnapshot {
	var d ProfileSnapshot
	for i := range s {
		d[i] = KindAgg{
			Count:   s[i].Count - prev[i].Count,
			TotalNs: s[i].TotalNs - prev[i].TotalNs,
			MaxNs:   s[i].MaxNs,
		}
	}
	return d
}

// Add returns the element-wise sum of two snapshots (counts and totals add,
// MaxNs takes the maximum). Used to merge per-shard profiles into one run
// total.
func (s ProfileSnapshot) Add(o ProfileSnapshot) ProfileSnapshot {
	var sum ProfileSnapshot
	for i := range s {
		sum[i] = KindAgg{
			Count:   s[i].Count + o[i].Count,
			TotalNs: s[i].TotalNs + o[i].TotalNs,
			MaxNs:   max(s[i].MaxNs, o[i].MaxNs),
		}
	}
	return sum
}

// EnableProfile arms the per-event-kind profiler on the scheduler and returns
// it. Calling it again returns the same (still-accumulating) profile. There
// is no disarm: a profile lives for the scheduler's lifetime, and runs that
// never arm one pay only the nil check in Step.
func (s *Scheduler) EnableProfile() *Profile {
	if s.prof == nil {
		s.prof = &Profile{}
	}
	return s.prof
}

// fireProfiled runs one event's callback under wall-clock measurement. Kept
// out of Step's inline budget so the disarmed path stays as tight as before.
func (s *Scheduler) fireProfiled(ev *Event) {
	start := time.Now()
	ev.fn(ev.arg)
	s.prof.record(ev.kind, int64(time.Since(start)))
}
