// In-run observability for scenarios: declarative sampling probes compiled
// from Spec.Probes, the per-host flight recorder enabled by Spec.TraceDepth,
// mid-run Result snapshots driven by Spec.SnapshotEvery, and the wall-clock
// execution timeline (EnableExecutionTimeline). All of it rides the one
// executor (shard.go): per-target probes are events on the scheduler of the
// shard owning the sampled state, snapshots and aggregate probes fire at its
// barriers, and the timeline records each shard's windows and the
// coordinator's barriers. Everything here is observation-only: nothing
// consumes randomness or mutates simulation state, so a run's Result is
// byte-identical with all of it on or off and on any shard count (pinned by
// TestShardedRunsAreByteIdentical and TestProbeSeriesDeterministic).
//
// Determinism of mid-run sampling deserves a note. A probe's sample at time
// t is a self-rescheduling event inserted at t-interval, so in a sharded run
// its insertion stamp is t-interval while a same-time packet delivery
// carries its sender-side serialisation time as stamp; the scheduler's
// (time, stamp, seq) order therefore places the sample exactly where the
// one-shard run's insertion order would have. The only ambiguous case is a
// delivery whose propagation delay equals the probe interval to the
// nanosecond — the reason DefaultInterval (250 ms) dwarfs every link delay
// in the canned scenarios.
package scenario

import (
	"fmt"
	"io"
	"path"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/simtime"
)

// Snapshot is one mid-run capture of the full Result, taken every
// Spec.SnapshotEvery of virtual time at a barrier: every event before At has
// run and none at At (the capture at Spec.Duration comes after the run's last
// events, so it equals the end state). Serial and sharded runs take the same
// snapshots byte for byte. Snapshots exist for invariant checking
// (faults.CheckSnapshot) and are not part of the Result.
type Snapshot struct {
	At     time.Duration
	Result *Result
}

// Snapshots returns the mid-run captures taken so far (nil when
// Spec.SnapshotEvery is zero).
func (s *Sim) Snapshots() []Snapshot { return s.snaps }

// probeSampler is one compiled probe: a closure reading the target value,
// bound to the scheduler of the shard that owns the sampled state.
type probeSampler struct {
	series *probe.Series
	sched  *simtime.Scheduler
	sample func() float64
	every  time.Duration
	until  time.Duration
	fire   func(any)
}

// installProbes compiles Spec.Probes into self-rescheduling sampling events.
// Called once from Start, after the workloads are wired, so the per-scheduler
// insertion order is identical in serial and sharded builds.
func (s *Sim) installProbes() error {
	for i, ps := range s.Spec.Probes {
		t, err := probe.ParseTarget(ps.Target)
		if err != nil {
			return fmt.Errorf("scenario %q: probe %d: %w", s.Spec.Name, i, err)
		}
		if t.Kind == probe.TargetLinks || t.Kind == probe.TargetHosts {
			if err := s.installAggregateProbe(ps, t); err != nil {
				return fmt.Errorf("scenario %q: probe %d: %w", s.Spec.Name, i, err)
			}
			continue
		}
		sample, sched, err := s.compileProbe(t)
		if err != nil {
			return fmt.Errorf("scenario %q: probe %d: %w", s.Spec.Name, i, err)
		}
		sp := &probeSampler{
			series: probe.NewSeries(ps.SeriesName()),
			sched:  sched,
			sample: sample,
			every:  ps.Interval,
			until:  s.Spec.Duration,
		}
		if sp.every <= 0 {
			sp.every = probe.DefaultInterval
		}
		sp.fire = func(any) {
			now := sp.sched.Now()
			sp.series.Add(now, sp.sample())
			if next := now + sp.every; next <= sp.until {
				sp.sched.AtArgKind(next, simtime.KindProbeSample, sp.fire, nil)
			}
		}
		if sp.every <= sp.until {
			sp.sched.AtArgKind(sp.every, simtime.KindProbeSample, sp.fire, nil)
		}
		s.samplers = append(s.samplers, sp)
	}
	return nil
}

// installAggregateProbe compiles a links.<glob>.<field> / hosts.<glob>.<field>
// probe: the glob resolves against directional link names (node names for
// hosts.*) at install time, and the sampler sums the field across every
// match. An aggregate reads state owned by many shards, so it samples on the
// barrier-observation schedule instead of a single scheduler — same instants
// and values in serial and sharded runs, but unlike per-target probes the
// sample excludes packet events at exactly the sampling instant.
func (s *Sim) installAggregateProbe(ps probe.Spec, t probe.Target) error {
	sample, err := s.compileAggregate(t)
	if err != nil {
		return err
	}
	sp := &probeSampler{
		series: probe.NewSeries(ps.SeriesName()),
		sample: sample,
		every:  ps.Interval,
		until:  s.Spec.Duration,
	}
	if sp.every <= 0 {
		sp.every = probe.DefaultInterval
	}
	var times []time.Duration
	for at := sp.every; at <= sp.until; at += sp.every {
		times = append(times, at)
	}
	s.addObserver(times, func(at time.Duration) { sp.series.Add(at, sp.sample()) })
	s.samplers = append(s.samplers, sp)
	return nil
}

// compileAggregate resolves an aggregate target's glob and returns the
// summing closure. An empty match set is an error: a silently-empty series
// would read as "nothing happened".
func (s *Sim) compileAggregate(t probe.Target) (func() float64, error) {
	if t.Kind == probe.TargetLinks {
		var links []*netsim.Link
		for _, d := range s.duplexes {
			for _, l := range []*netsim.Link{d.Forward, d.Reverse} {
				ok, err := path.Match(t.Pattern, l.Config().Name)
				if err != nil {
					return nil, fmt.Errorf("links pattern %q: %w", t.Pattern, err)
				}
				if ok {
					links = append(links, l)
				}
			}
		}
		if len(links) == 0 {
			return nil, fmt.Errorf("links pattern %q matches no link direction", t.Pattern)
		}
		var per func(l *netsim.Link) float64
		switch t.Field {
		case "queue_depth":
			per = func(l *netsim.Link) float64 { return float64(l.QueueLen()) }
		case "sent_packets":
			per = func(l *netsim.Link) float64 { p, _ := l.SentCounters(); return float64(p) }
		case "sent_bytes":
			per = func(l *netsim.Link) float64 { _, b := l.SentCounters(); return float64(b) }
		case "delivered_bytes":
			per = func(l *netsim.Link) float64 { return float64(l.DeliveredBytes()) }
		case "drops":
			per = func(l *netsim.Link) float64 { return float64(l.DropCount()) }
		}
		return func() float64 {
			sum := 0.0
			for _, l := range links {
				sum += per(l)
			}
			return sum
		}, nil
	}
	var hosts []*node.Host
	for _, name := range s.nodeNames {
		ok, err := path.Match(t.Pattern, name)
		if err != nil {
			return nil, fmt.Errorf("hosts pattern %q: %w", t.Pattern, err)
		}
		if ok {
			hosts = append(hosts, s.net.Host(name))
		}
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("hosts pattern %q matches no node", t.Pattern)
	}
	per := hostField(t.Field)
	return func() float64 {
		sum := 0.0
		for _, h := range hosts {
			sum += per(h)
		}
		return sum
	}, nil
}

// hostField returns the reader for one host-level probe field (shared by the
// per-host and aggregate probe families).
func hostField(field string) func(h *node.Host) float64 {
	switch field {
	case "sent_packets":
		return func(h *node.Host) float64 { return float64(h.Stats().SentPackets) }
	case "sent_bytes":
		return func(h *node.Host) float64 { return float64(h.Stats().SentBytes) }
	case "received_packets":
		return func(h *node.Host) float64 { return float64(h.Stats().ReceivedPackets) }
	case "received_bytes":
		return func(h *node.Host) float64 { return float64(h.Stats().ReceivedBytes) }
	case "forwarded_packets":
		return func(h *node.Host) float64 { return float64(h.Stats().ForwardedPackets) }
	case "no_route_drops":
		return func(h *node.Host) float64 { return float64(h.Stats().NoRouteDrops) }
	case "route_miss_drops":
		return func(h *node.Host) float64 { return float64(h.Stats().RouteMissDrops) }
	case "forward_miss_drops":
		return func(h *node.Host) float64 { return float64(h.Stats().ForwardMissDrops) }
	case "ttl_expired_drops":
		return func(h *node.Host) float64 { return float64(h.Stats().TTLExpiredDrops) }
	}
	return nil
}

// compileProbe resolves a parsed target against the built topology: the
// value closure plus the scheduler it must sample on (the shard owning the
// sampled state, so no probe ever reads across a shard boundary).
func (s *Sim) compileProbe(t probe.Target) (func() float64, *simtime.Scheduler, error) {
	switch t.Kind {
	case probe.TargetLink:
		if t.Index < 0 || t.Index >= len(s.duplexes) {
			return nil, nil, fmt.Errorf("link index %d out of range (%d links)", t.Index, len(s.duplexes))
		}
		ls := s.Spec.Links[t.Index]
		l := s.duplexes[t.Index].Forward
		// Transmit-side state belongs to the A-side shard; delivery-side
		// counters are only ever written by the receiving (B-side) shard.
		clock := s.clockFor(ls.A)
		if t.Field == "delivered_bytes" {
			clock = s.clockFor(ls.B)
		}
		var fn func() float64
		switch t.Field {
		case "queue_depth":
			fn = func() float64 { return float64(l.QueueLen()) }
		case "sent_packets":
			fn = func() float64 { p, _ := l.SentCounters(); return float64(p) }
		case "sent_bytes":
			fn = func() float64 { _, b := l.SentCounters(); return float64(b) }
		case "delivered_bytes":
			fn = func() float64 { return float64(l.DeliveredBytes()) }
		case "drops":
			fn = func() float64 { return float64(l.DropCount()) }
		case "utilization":
			fn = func() float64 { return l.Utilization() }
		}
		return fn, clock, nil
	case probe.TargetHost:
		h := s.net.Host(t.Host)
		if h == nil {
			return nil, nil, fmt.Errorf("host %q not in topology", t.Host)
		}
		per := hostField(t.Field)
		return func() float64 { return per(h) }, s.clockFor(t.Host), nil
	case probe.TargetCM:
		c := s.cms[t.Host]
		if c == nil {
			return nil, nil, fmt.Errorf("host %q runs no Congestion Manager", t.Host)
		}
		var fn func() float64
		switch t.Field {
		case "rate":
			fn = func() float64 { return c.AggregateStatus().Rate }
		case "cwnd":
			fn = func() float64 { return float64(c.AggregateStatus().CWND) }
		case "srtt":
			fn = func() float64 { return c.AggregateStatus().SRTT.Seconds() }
		case "loss_rate":
			fn = func() float64 { return c.AggregateStatus().LossRate }
		case "outstanding":
			fn = func() float64 { return float64(c.AggregateStatus().Outstanding) }
		case "flows":
			fn = func() float64 { return float64(c.FlowCount()) }
		case "macroflows":
			fn = func() float64 { return float64(c.MacroflowCount()) }
		}
		return fn, s.clockFor(t.Host), nil
	case probe.TargetShard:
		// Execution-plan values: identical at every sample, but as a series
		// they flow into sweep aggregation like any other probe. They
		// describe the execution (not the simulated system), so they are the
		// one probe family whose values differ between a serial and a
		// sharded run of the same spec.
		var fn func() float64
		switch t.Field {
		case "count":
			fn = func() float64 { return float64(s.ShardCount()) }
		case "lookahead":
			fn = func() float64 { return s.Lookahead().Seconds() }
		}
		return fn, s.shard.states[0].sched, nil
	}
	return nil, nil, fmt.Errorf("unknown probe target kind %q", t.Kind)
}

// takeSnapshot captures the full current Result. The executor calls it at
// the barrier aligned with each snapshot time, when every shard is quiescent
// and cross-shard reads are safe, and at the end of the run for a snapshot
// due exactly then.
func (s *Sim) takeSnapshot(at time.Duration) {
	s.snaps = append(s.snaps, Snapshot{At: at, Result: s.collect(s.drivers)})
}

// armSnapshots hands the Spec.SnapshotEvery schedule to the executor.
func (s *Sim) armSnapshots() {
	every := s.Spec.SnapshotEvery
	if every <= 0 || every > s.Spec.Duration {
		return
	}
	sr := s.shard
	sr.snapEvery, sr.nextSnap, sr.end, sr.snap = every, every, s.Spec.Duration, s.takeSnapshot
}

// installTrace enables the flight recorder: one ring per host plus taps on
// every link direction and recorder hooks in every CM. Rings are written
// only by the owning host's scheduler (its shard worker, or single-threaded
// control phases), the same discipline as every other per-host structure.
func (s *Sim) installTrace() {
	depth := s.Spec.TraceDepth
	if depth <= 0 {
		return
	}
	s.recorders = make(map[string]*probe.Recorder, len(s.nodeNames))
	for _, name := range s.nodeNames {
		s.recorders[name] = probe.NewRecorder(depth)
	}
	for i, ls := range s.Spec.Links {
		d := s.duplexes[i]
		s.tapLink(d.Forward, ls.A, ls.B)
		s.tapLink(d.Reverse, ls.B, ls.A)
	}
	for _, h := range s.cmHosts {
		s.cms[h].SetRecorder(s.recorders[h])
	}
}

// tapLink wires one link direction's enqueue/drop/deliver observations into
// the sender's and receiver's rings. Enqueue and drop happen on the sending
// shard, delivery on the receiving one; each tap stamps with its own side's
// clock, respecting the link's field-ownership split.
func (s *Sim) tapLink(l *netsim.Link, sender, receiver string) {
	sRec, rRec := s.recorders[sender], s.recorders[receiver]
	sClock, rClock := s.clockFor(sender), s.clockFor(receiver)
	name := l.Config().Name
	l.SetSendTap(func(pkt *netsim.Packet) {
		sRec.Append(probe.Event{At: sClock.Now(), Kind: probe.EvEnqueue, Size: int64(pkt.Size), Note: name})
	})
	l.SetDropTap(func(pkt *netsim.Packet, reason string) {
		sRec.Append(probe.Event{At: sClock.Now(), Kind: probe.EvDrop, Size: int64(pkt.Size), Note: reason})
	})
	l.SetTap(func(pkt *netsim.Packet) {
		rRec.Append(probe.Event{At: rClock.Now(), Kind: probe.EvDeliver, Size: int64(pkt.Size), Note: name})
	})
}

// recordHostEvent notes a host-level happening (fault application, route
// recomputation) in the host's ring. Host events run in single-threaded
// control phases, so writing another host's ring here is race-free.
func (s *Sim) recordHostEvent(host string, ev probe.Event) {
	if s.recorders == nil {
		return
	}
	if r := s.recorders[host]; r != nil {
		r.Append(ev)
	}
}

// Recorder returns the named host's flight-recorder ring, or nil when
// tracing is disabled.
func (s *Sim) Recorder(host string) *probe.Recorder { return s.recorders[host] }

// DumpTrace writes every host's retained flight-recorder events to w, hosts
// in deterministic order, each line prefixed with the host name. It reports
// the total number of lines written (zero when tracing is off or nothing
// was recorded).
func (s *Sim) DumpTrace(w io.Writer) int {
	n := 0
	for _, name := range s.nodeNames {
		r := s.recorders[name]
		if r == nil || r.Len() == 0 {
			continue
		}
		r.Dump(w, name)
		n += r.Len()
	}
	return n
}

// EnableExecutionTimeline attaches a wall-clock execution timeline: one
// "window" lane per shard plus a coordinator lane of "barrier" spans (a
// serial run without barriers is one window span on lane "shard 0"). Must be
// called after Build and before the run starts; the returned timeline is
// exported with probe.Timeline.WriteJSON. The timeline records wall-clock
// spans only — it never appears in the Result, so enabling it cannot perturb
// determinism.
func (s *Sim) EnableExecutionTimeline() *probe.Timeline {
	n := s.shard.plan.nshards
	names := make([]string, n+1)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("shard %d", i)
	}
	names[n] = "coordinator"
	tl := probe.NewTimeline(names...)
	s.shard.timeline = tl
	for i, ss := range s.shard.states {
		ss.lane, ss.tl = i, tl
	}
	s.execTL = tl
	return tl
}

// ExecutionTimeline returns the timeline attached by
// EnableExecutionTimeline, or nil.
func (s *Sim) ExecutionTimeline() *probe.Timeline { return s.execTL }

// RunUntil advances the simulation to virtual time t, executing every event
// at or before t; the observers, dynamics events and snapshots due on the
// way fire at their barriers. It may be called repeatedly with increasing t,
// also past Spec.Duration; a caller attaching its own workloads to a host's
// Clock drives the run this way.
func (s *Sim) RunUntil(t time.Duration) { s.shard.runUntil(t) }

// RunToEnd runs the simulation to Spec.Duration and releases the cross-shard
// deliveries that would arrive after it. Run composes Build + Start +
// RunToEnd + Finish; callers needing mid-run artifacts (snapshots, traces,
// timelines) use the pieces directly.
func (s *Sim) RunToEnd() {
	s.RunUntil(s.Spec.Duration)
	s.shard.release()
}
