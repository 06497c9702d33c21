// In-run observability for scenarios: declarative sampling probes compiled
// from Spec.Probes, the per-host flight recorder enabled by Spec.TraceDepth,
// mid-run Result snapshots driven by Spec.SnapshotEvery, and the wall-clock
// execution timeline (EnableExecutionTimeline). All of it rides the one
// executor (shard.go): probes and snapshots are barrier actions
// (observers.go), so a sample or snapshot at t sees every event before t and
// none at t, and the timeline records each shard's windows and the
// coordinator's barriers. Everything here is observation-only: nothing
// consumes randomness or mutates simulation state, so a run's Result is
// byte-identical with all of it on or off and on any shard count (pinned by
// TestShardedRunsAreByteIdentical and TestProbeSeriesDeterministic).
package scenario

import (
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/probe"
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

// installProbes compiles Spec.Probes into barrier actions, each sampling its
// target at every multiple of its interval up to Spec.Duration.
func (s *Sim) installProbes() error {
	for i, ps := range s.Spec.Probes {
		sample, err := s.compileProbe(ps.Target)
		if err != nil {
			return fmt.Errorf("scenario %q: probe %d: %w", s.Spec.Name, i, err)
		}
		series := probe.NewSeries(ps.SeriesName())
		s.series = append(s.series, series)
		every := ps.Interval
		if every <= 0 {
			every = probe.DefaultInterval
		}
		s.shard.repeat(rankObserve, every, s.Spec.Duration, func(at time.Duration) { series.Add(at, sample()) })
	}
	return nil
}

// probeField is one sampled quantity of a probe target family: its name in
// the target path, its reader, and whether a links.<glob> or hosts.<glob>
// target may sum it over its matches.
type probeField[T any] struct {
	name   string
	read   func(T) float64
	summed bool
}

// The probe fields of each target family, in the order docs/OBSERVABILITY.md
// lists them. They are the one definition of a field: ParseProbeTarget checks
// a path against them and compileProbe reads through them. A link field is
// read at a barrier, when both sides of the link are quiescent.
var (
	linkProbes = []probeField[*netsim.Link]{
		{"queue_depth", func(l *netsim.Link) float64 { return float64(l.QueueLen()) }, true},
		{"sent_packets", func(l *netsim.Link) float64 { return float64(l.Stats().SentPackets) }, true},
		{"sent_bytes", func(l *netsim.Link) float64 { return float64(l.Stats().SentBytes) }, true},
		{"delivered_bytes", func(l *netsim.Link) float64 { return float64(l.Stats().DeliveredOctets) }, true},
		{"drops", func(l *netsim.Link) float64 {
			st := l.Stats()
			return float64(st.QueueDrops + st.BernoulliDrops + st.BurstDrops + st.DownDrops)
		}, true},
		// A ratio: a sum over links would mean nothing.
		{"utilization", (*netsim.Link).Utilization, false},
	}
	hostProbes = []probeField[*node.Host]{
		{"sent_packets", func(h *node.Host) float64 { return float64(h.Stats().SentPackets) }, true},
		{"sent_bytes", func(h *node.Host) float64 { return float64(h.Stats().SentBytes) }, true},
		{"received_packets", func(h *node.Host) float64 { return float64(h.Stats().ReceivedPackets) }, true},
		{"received_bytes", func(h *node.Host) float64 { return float64(h.Stats().ReceivedBytes) }, true},
		{"forwarded_packets", func(h *node.Host) float64 { return float64(h.Stats().ForwardedPackets) }, true},
		{"no_route_drops", func(h *node.Host) float64 { return float64(h.Stats().NoRouteDrops) }, true},
		{"route_miss_drops", func(h *node.Host) float64 { return float64(h.Stats().RouteMissDrops) }, true},
		{"forward_miss_drops", func(h *node.Host) float64 { return float64(h.Stats().ForwardMissDrops) }, true},
		{"ttl_expired_drops", func(h *node.Host) float64 { return float64(h.Stats().TTLExpiredDrops) }, true},
	}
	// The CM fields aggregate over the host's macroflows as its status query
	// does: rate, cwnd and outstanding sum, srtt and loss_rate take the worst.
	cmProbes = []probeField[*cm.CM]{
		{"rate", func(c *cm.CM) float64 { return c.AggregateStatus().Rate }, false},
		{"cwnd", func(c *cm.CM) float64 { return float64(c.AggregateStatus().CWND) }, false},
		{"srtt", func(c *cm.CM) float64 { return c.AggregateStatus().SRTT.Seconds() }, false},
		{"loss_rate", func(c *cm.CM) float64 { return c.AggregateStatus().LossRate }, false},
		{"outstanding", func(c *cm.CM) float64 { return float64(c.AggregateStatus().Outstanding) }, false},
		{"flows", func(c *cm.CM) float64 { return float64(c.FlowCount()) }, false},
		{"macroflows", func(c *cm.CM) float64 { return float64(c.MacroflowCount()) }, false},
	}
	// Execution-plan values: identical at every sample, but as a series they
	// flow into sweep aggregation like any other probe. They describe the
	// execution, not the simulated system, so they are the one family whose
	// values differ between a serial and a sharded run of the same spec.
	shardProbes = []probeField[*Sim]{
		{"count", func(s *Sim) float64 { return float64(s.ShardCount()) }, false},
		{"lookahead", func(s *Sim) float64 { return s.Lookahead().Seconds() }, false},
	}
)

// probeFieldNames returns the fields a target kind accepts, in table order:
// an aggregate kind takes only the fields that sum.
func probeFieldNames(kind string) []string {
	switch kind {
	case probe.TargetLink, probe.TargetLinks:
		return fieldNames(linkProbes, kind == probe.TargetLinks)
	case probe.TargetHost, probe.TargetHosts:
		return fieldNames(hostProbes, kind == probe.TargetHosts)
	case probe.TargetCM:
		return fieldNames(cmProbes, false)
	case probe.TargetShard:
		return fieldNames(shardProbes, false)
	}
	return nil
}

func fieldNames[T any](fields []probeField[T], summedOnly bool) []string {
	var names []string
	for _, f := range fields {
		if f.summed || !summedOnly {
			names = append(names, f.name)
		}
	}
	return names
}

// reader returns the reader of the named field, which ParseProbeTarget has
// checked is in fields.
func reader[T any](fields []probeField[T], name string) func(T) float64 {
	for _, f := range fields {
		if f.name == name {
			return f.read
		}
	}
	panic("scenario: unchecked probe field " + name)
}

// ParseProbeTarget parses a probe path (probe.ParseTarget) and checks its
// field against the target family's field table.
func ParseProbeTarget(target string) (probe.Target, error) {
	t, err := probe.ParseTarget(target)
	if err != nil {
		return probe.Target{}, err
	}
	names := probeFieldNames(t.Kind)
	if !slices.Contains(names, t.Field) {
		return probe.Target{}, fmt.Errorf("probe target %q: unknown field %q (valid: %s)", target, t.Field, strings.Join(names, ", "))
	}
	return t, nil
}

// compileProbe resolves a probe target against the built topology and
// returns its reader. link[i] and host[h] are the one-member cases of the
// links.<glob> and hosts.<glob> sums. Spec.Validate has checked the target
// and its link index, host or CM; a glob that matches nothing is an error
// here, since a silently-empty series would read as "nothing happened".
func (s *Sim) compileProbe(target string) (func() float64, error) {
	t, err := ParseProbeTarget(target)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case probe.TargetLink:
		return sum([]*netsim.Link{s.duplexes[t.Index].Forward}, reader(linkProbes, t.Field)), nil
	case probe.TargetLinks:
		var links []*netsim.Link
		for _, d := range s.duplexes {
			for _, l := range [2]*netsim.Link{d.Forward, d.Reverse} {
				if ok, _ := path.Match(t.Pattern, l.Config().Name); ok {
					links = append(links, l)
				}
			}
		}
		if len(links) == 0 {
			return nil, fmt.Errorf("links pattern %q matches no link direction", t.Pattern)
		}
		return sum(links, reader(linkProbes, t.Field)), nil
	case probe.TargetHost:
		return sum([]*node.Host{s.net.Host(t.Host)}, reader(hostProbes, t.Field)), nil
	case probe.TargetHosts:
		var hosts []*node.Host
		for _, name := range s.nodeNames {
			if ok, _ := path.Match(t.Pattern, name); ok {
				hosts = append(hosts, s.net.Host(name))
			}
		}
		if len(hosts) == 0 {
			return nil, fmt.Errorf("hosts pattern %q matches no node", t.Pattern)
		}
		return sum(hosts, reader(hostProbes, t.Field)), nil
	case probe.TargetCM:
		read, c := reader(cmProbes, t.Field), s.cms[t.Host]
		return func() float64 { return read(c) }, nil
	default: // probe.TargetShard
		read := reader(shardProbes, t.Field)
		return func() float64 { return read(s) }, nil
	}
}

// sum returns the reader adding field over every member of set.
func sum[T any](set []T, field func(T) float64) func() float64 {
	return func() float64 {
		total := 0.0
		for _, x := range set {
			total += field(x)
		}
		return total
	}
}

// takeSnapshot captures the full current Result. The executor calls it at
// the barrier at each snapshot time, when every shard is quiescent and
// cross-shard reads are safe, and at the end of the run for a snapshot due
// exactly then.
func (s *Sim) takeSnapshot(at time.Duration) {
	s.snaps = append(s.snaps, Snapshot{At: at, Result: s.collect(s.drivers)})
}

// armSnapshots schedules Spec.SnapshotEvery: a barrier action for the
// snapshots before Spec.Duration, and the executor's final hook for the one
// due exactly at it.
func (s *Sim) armSnapshots() {
	every, end := s.Spec.SnapshotEvery, s.Spec.Duration
	if every <= 0 {
		return
	}
	s.shard.repeat(rankSnapshot, every, end-1, s.takeSnapshot)
	if end%every == 0 {
		s.shard.end, s.shard.final = end, s.takeSnapshot
	}
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
