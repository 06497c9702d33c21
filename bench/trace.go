package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// this package, around the calls into the simulator; they stay in memory
// until the benchmark ends.
type span struct {
	Name     string
	Parent   string // "" for a repetition, "rep" for its phases
	Workload string
	Rep      int
	Traced   bool
	interval
}

var spans []span

// recordSpans keeps one repetition's span and its phase spans.
func recordSpans(workload string, repNo int, traced bool, r *rep) {
	spans = append(spans, span{
		Name: "rep", Workload: workload, Rep: repNo, Traced: traced,
		interval: r.whole(),
	})
	for _, ps := range r.spans {
		spans = append(spans, span{
			Name: phaseMetric[ps.phase], Parent: "rep", Workload: workload, Rep: repNo, Traced: traced,
			interval: ps.interval,
		})
	}
}

// writeTrace writes every recorded span as Chrome trace_event JSON (load it
// in chrome://tracing or ui.perfetto.dev): one thread per workload, each
// repetition a slice with its phases nested inside.
func writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for _, s := range spans {
		tid, ok := tids[s.Workload]
		if !ok {
			tid = len(tids)
			tids[s.Workload] = tid
			events = append(events, event{
				Name: "thread_name", Ph: "M", Tid: tid,
				Args: map[string]any{"name": s.Workload},
			})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Tid: tid,
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{
				"parent": s.Parent, "workload": s.Workload, "rep": s.Rep, "traced": s.Traced,
				"start_ns": s.start, "end_ns": s.end,
			},
		})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedRun is what the traced twins of one workload produced.
type tracedRun struct {
	twins   []*rep
	samples []cpuSample
}

// runTraced repeats the traced twin until the deadline (at least once) under
// one CPU profile. Every twin is checked like an untraced repetition: the
// instruments are observation-only, so its digest must equal ref's.
func runTraced(j *job, o *options, ref *rep, c *checks) (*tracedRun, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	tr := &tracedRun{}
	deadline := o.deadline()
	for n := 1; o.more(n, 1, deadline); n++ {
		r, err := j.run(true)
		c.verify(fmt.Sprintf("traced twin %d", n), r, err, ref)
		if err != nil {
			continue
		}
		recordSpans(j.w.name, n, true, r)
		var phases float64
		for _, seconds := range r.phases {
			phases += seconds
		}
		// Between the phases lie only the memory-statistics reads; the 20 ms
		// allowance matters to scaled-down twins alone, which a busy host can
		// hold up for longer than they run.
		c.check(r.wall()-phases-r.readsS <= max(0.02*r.wall(), 0.02),
			"traced twin %d: phases and statistics reads cover %.4fs of the repetition's %.4fs", n, phases+r.readsS, r.wall())
		if len(tr.twins) > 0 {
			r.results, r.timeline = nil, nil // the counts come from the first twin
		}
		tr.twins = append(tr.twins, r)
	}
	pprof.StopCPUProfile()
	if len(tr.twins) == 0 {
		return nil, fmt.Errorf("%s: every traced twin failed", j.w.name)
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	tr.samples = samples
	return tr, nil
}

// layerMetrics turns the traced twins into the per-layer table. Times are
// medians over the twins; counts are the first twin's (the simulation is
// deterministic, so every twin counts the same). untraced are the
// instrument-free repetitions of the same workload in this process, serial
// the serial reference run of a sharded workload (nil otherwise), and api
// the closed-loop results.
func layerMetrics(j *job, tr *tracedRun, untraced []*rep, serial *rep, api map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for name, v := range api {
		m[name] = v
	}
	over := func(rs []*rep, f func(*rep) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		return median(vs)
	}
	first := tr.twins[0]
	for p := 0; p < numPhases; p++ {
		m[phaseMetric[p]] = over(tr.twins, func(r *rep) float64 { return r.phases[p] })
	}
	runS := m["scenario.run_s"]

	shares, total := cpuShares(tr.samples)
	for b, share := range shares {
		m["cpu."+b+"_frac"] = share
	}
	m["cpu.samples"] = float64(total)

	pkts := float64(first.pktHops)
	var events uint64
	for _, perf := range first.perf {
		if perf == nil {
			continue
		}
		events += perf.Events
		for _, kind := range perf.Kinds {
			m["simtime.kind."+kind.Kind+".count"] += float64(kind.Count)
		}
	}
	for kind := simtime.Kind(0); kind < simtime.NumKinds; kind++ {
		name := kind.String()
		m["simtime.kind."+name+".ns"] = over(tr.twins, func(r *rep) float64 { return r.kindNs(name) })
	}
	m["simtime.events"] = float64(events)
	m["simtime.events_per_s"] = float64(events) / runS
	if events > 0 {
		m["simtime.ns_per_event"] = runS * 1e9 / float64(events)
	}
	m["simtime.events_per_pkt"] = float64(events) / pkts

	var sentSegs, retx float64
	for _, res := range first.results {
		for _, l := range res.Links {
			m["netsim.delivered_bytes"] += float64(l.DeliveredOctets)
			m["netsim.queue_drops"] += float64(l.QueueDrops)
			m["netsim.random_drops"] += float64(l.BernoulliDrops + l.BurstDrops)
			m["netsim.down_drops"] += float64(l.DownDrops)
		}
		for _, h := range res.Hosts {
			m["node.forwarded"] += float64(h.ForwardedPackets)
			m["node.route_miss_drops"] += float64(h.RouteMissDrops + h.ForwardMissDrops + h.NoRouteDrops)
			m["node.ttl_drops"] += float64(h.TTLExpiredDrops)
			sentSegs += float64(h.SentPackets)
		}
		for _, f := range res.Flows {
			m["app.layer_switches"] += float64(f.LayerSwitches)
			if j.udpFlow(f.Workload) {
				continue
			}
			m["tcp.flows"]++
			if f.Completed {
				m["tcp.flows_completed"]++
			}
			m["tcp.goodput_bytes"] += float64(f.Delivered)
			m["tcp.retransmissions"] += float64(f.Retransmissions)
			m["tcp.timeouts"] += float64(f.Timeouts)
			retx += float64(f.Retransmissions)
		}
		for _, c := range res.CMs {
			m["cm.macroflows"] += float64(c.Macroflows)
			m["cm.requests"] += float64(c.Requests + c.BulkRequests)
			m["cm.grants_issued"] += float64(c.GrantsIssued)
			m["cm.notifies"] += float64(c.Notifies)
			m["cm.updates"] += float64(c.Updates + c.BulkUpdates)
			m["cm.restarts"] += float64(c.Restarts)
			m["libcm.dropped_sends"] += float64(c.DroppedSends)
			m["libcm.delayed_sends"] += float64(c.DelayedSends)
			m["libcm.stale_updates_dropped"] += float64(c.StaleUpdatesDropped)
		}
		if rt := res.Routing; rt != nil {
			m["routeproto.msgs_sent"] += float64(rt.MessagesSent)
			m["routeproto.entries_sent"] += float64(rt.EntriesSent)
			m["routeproto.triggered_updates"] += float64(rt.TriggeredUpdates)
			m["routeproto.route_changes"] += float64(rt.RouteChanges)
			if rt.Converged {
				m["routeproto.converged"] = 1
			}
		}
	}
	m["netsim.pkt_hops"] = pkts
	m["node.forward_per_pkt"] = m["node.forwarded"] / pkts
	if sentSegs > 0 {
		m["tcp.retx_frac"] = retx / sentSegs
	}
	if m["cm.requests"] > 0 {
		m["cm.grants_per_request"] = m["cm.grants_issued"] / m["cm.requests"]
	}

	untracedRun := over(untraced, func(r *rep) float64 { return r.phases[phaseRun] })
	if first.timeline != nil {
		m["shard.count"] = float64(first.shards)
		m["shard.lookahead_ms"] = float64(first.lookahead) / float64(time.Millisecond)
		windows, barrier, imbalance := shardTimeline(first.timeline, first.shards)
		m["shard.windows"] = float64(windows)
		m["shard.barrier_frac"] = barrier / first.phases[phaseRun]
		m["shard.imbalance"] = imbalance
		if serial != nil {
			m["shard.speedup_vs_serial"] = serial.phases[phaseRun] / untracedRun
		}
	}
	if j.w.campaign != nil {
		runs := float64(len(first.results))
		m["sweep.runs"] = runs
		m["sweep.runs_per_s"] = runs / runS
		m["sweep.expand_s"] = m["scenario.build_s"]
		// Campaign.Run aggregates before it returns, so the aggregation is
		// inside run_s; what can be timed from outside is the emitters.
		m["sweep.aggregate_emit_s"] = m["scenario.encode_s"]
	}

	m["mem.mallocs"] = over(tr.twins, func(r *rep) float64 { return float64(r.mallocs) })
	m["mem.bytes"] = over(tr.twins, func(r *rep) float64 { return float64(r.bytes) })
	m["mem.gc_cycles"] = over(tr.twins, func(r *rep) float64 { return float64(r.gcCycles) })
	m["mem.gc_pause_ms"] = over(tr.twins, func(r *rep) float64 { return float64(r.gcPauseNs) / 1e6 })
	m["mem.build_mallocs"] = over(tr.twins, func(r *rep) float64 { return float64(r.buildMallocs) })
	m["trace.overhead_frac"] = runS/untracedRun - 1
	return m
}

// kindNs sums the wall nanoseconds the twin's event profilers booked to one
// event kind.
func (r *rep) kindNs(kind string) float64 {
	var ns int64
	for _, perf := range r.perf {
		if perf == nil {
			continue
		}
		for _, pk := range perf.Kinds {
			if pk.Kind == kind {
				ns += pk.TotalNs
			}
		}
	}
	return float64(ns)
}

// udpFlow reports whether flows of the spec's workload wi are layered UDP
// streams rather than TCP connections. The campaign's dumbbell is all TCP.
func (j *job) udpFlow(wi int) bool {
	if j.w.campaign != nil {
		return false
	}
	kind := j.specs[0].Workloads[wi].Kind
	return kind == scenario.KindUDPRate || kind == scenario.KindUDPALF
}

// shardTimeline reduces a sharded twin's execution timeline to the number of
// synchronization windows, the coordinator's barrier seconds, and the
// busiest shard's window time over the mean shard's.
func shardTimeline(tl *probe.Timeline, shards int) (windows int, barrierS, imbalance float64) {
	busy := make([]float64, shards)
	for _, s := range tl.Spans() {
		switch {
		case s.Name == "barrier":
			windows++
			barrierS += s.Dur.Seconds()
		case s.Name == "window" && s.Lane < shards:
			busy[s.Lane] += s.Dur.Seconds()
		}
	}
	var sum, max float64
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum > 0 {
		imbalance = max * float64(shards) / sum
	}
	return windows, barrierS, imbalance
}
