package main

import (
	"encoding/json"
	"sort"

	"repro/internal/simtime"
)

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change is rejected;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// fastest marks a metric a run reports as the best of its repetitions
	// instead of their median; see endToEnd.
	fastest bool
}

const (
	higher = "higher"
	lower  = "lower"
)

// runSeconds is how long one run measures; the driver passes it back as
// -seconds.
const runSeconds = 10

// endToEnd are the numbers a user of the simulator sees. Each bound is
// max(floor from the issue, 3 x the widest spread of ten seeds over the A/A
// sets on the reference container), at most 0.25; README.md has the tables.
// The wall-clock metrics all sit at that cap: the container is a share of a
// busy host, and what one hour measures within 4% the next measures within 15%.
//
// A run reports the median of its repetitions, except for the two wall-clock
// rates of RunToEnd, which report the fastest repetition. What perturbs them
// on a shared 2-core container only ever slows them down, and the sharded
// grid shows why the median will not do: a repetition runs at ~2.35 M or
// ~2.9 M packet-hops/s depending on how the host schedules the two workers,
// the share of slow repetitions drifts from run to run between 0.2 and 0.8,
// and the median (like the mean) of ten runs of one commit spreads over 17%,
// their 90th percentile over 8%; the fastest repetition is the rate the code
// reaches when left alone and repeats within 4%. The median and quartiles of
// the repetitions are still printed and stored.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim-s/wall-s", higher, 0.25, true},
	{"sim_pkts_per_s", "pkt-hops/s", higher, 0.25, true},
	{"allocs_per_pkt", "allocs/pkt-hop", lower, 0.06, false},
	{"bytes_per_pkt", "B/pkt-hop", lower, 0.05, false},
	{"heap_live_mb", "MiB", lower, 0.18, false},
	{"setup_s", "s", lower, 0.25, false},
	{"encode_s", "s", lower, 0.25, false},
}

// cpuBuckets are the packages a CPU-profile sample's leaf frame is booked
// to, in report order; the fractions sum to 1.
var cpuBuckets = []string{
	"simtime", "netsim", "node", "tcp", "udp", "cm", "libcm", "app",
	"routeproto", "dynamics", "probe", "scenario", "sweep",
	"runtime_gc", "runtime_other", "other",
}

// apiLoops are the closed loops on each layer's exported functions, in run
// order; each reports <name>_<unit> and <name>_allocs_op.
var apiLoops = []struct{ name, unit string }{
	{"api.simtime.schedule_fire", "ns"},
	{"api.simtime.churn_4k", "ns"},
	{"api.netsim.link_send_deliver", "ns"},
	{"api.node.forward_hop", "ns"},
	{"api.tcp.segment", "ns"},
	{"api.tcp_cm.segment", "ns"},
	{"api.udp.cc_send", "ns"},
	{"api.cm.request_grant_notify", "ns"},
	{"api.cm.charge_1k_flows", "ns"},
	{"api.cm.round_robin_1k", "ns"},
	{"api.libcm.request_dispatch", "ns"},
	{"api.routeproto.msg", "ns"},
	{"api.probe.recorder_append", "ns"},
	{"api.scenario.build_fattree_k16", "ms"},
	{"api.faults.check", "ms"},
}

// perLayer lists every per-layer metric the traced twin reports, for every
// workload (a layer a workload does not use reads 0).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "scenario.build_s", Unit: "s", Better: lower},
		{Name: "scenario.start_s", Unit: "s", Better: lower},
		{Name: "scenario.run_s", Unit: "s", Better: lower},
		{Name: "scenario.finish_s", Unit: "s", Better: lower},
		{Name: "faults.check_s", Unit: "s", Better: lower},
		{Name: "scenario.encode_s", Unit: "s", Better: lower},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: "cpu." + b + "_frac", Unit: "frac", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "cpu.samples", Unit: "count", Better: higher},
		metricDef{Name: "simtime.events", Unit: "count", Better: lower},
		metricDef{Name: "simtime.events_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "simtime.ns_per_event", Unit: "ns", Better: lower},
		metricDef{Name: "simtime.events_per_pkt", Unit: "1/pkt-hop", Better: lower},
	)
	for k := simtime.Kind(0); k < simtime.NumKinds; k++ {
		defs = append(defs,
			metricDef{Name: "simtime.kind." + k.String() + ".count", Unit: "count", Better: lower},
			metricDef{Name: "simtime.kind." + k.String() + ".ns", Unit: "ns", Better: lower},
		)
	}
	defs = append(defs,
		metricDef{Name: "netsim.pkt_hops", Unit: "count", Better: higher},
		metricDef{Name: "netsim.delivered_bytes", Unit: "B", Better: higher},
		metricDef{Name: "netsim.queue_drops", Unit: "count", Better: lower},
		metricDef{Name: "netsim.random_drops", Unit: "count", Better: lower},
		metricDef{Name: "netsim.down_drops", Unit: "count", Better: lower},
		metricDef{Name: "node.forwarded", Unit: "count", Better: higher},
		metricDef{Name: "node.forward_per_pkt", Unit: "1/pkt-hop", Better: lower},
		metricDef{Name: "node.route_miss_drops", Unit: "count", Better: lower},
		metricDef{Name: "node.ttl_drops", Unit: "count", Better: lower},
		metricDef{Name: "tcp.flows", Unit: "count", Better: higher},
		metricDef{Name: "tcp.flows_completed", Unit: "count", Better: higher},
		metricDef{Name: "tcp.goodput_bytes", Unit: "B", Better: higher},
		metricDef{Name: "tcp.retransmissions", Unit: "count", Better: lower},
		metricDef{Name: "tcp.timeouts", Unit: "count", Better: lower},
		metricDef{Name: "tcp.retx_frac", Unit: "frac", Better: lower},
		metricDef{Name: "cm.macroflows", Unit: "count", Better: higher},
		metricDef{Name: "cm.requests", Unit: "count", Better: higher},
		metricDef{Name: "cm.grants_issued", Unit: "count", Better: higher},
		metricDef{Name: "cm.notifies", Unit: "count", Better: higher},
		metricDef{Name: "cm.updates", Unit: "count", Better: higher},
		metricDef{Name: "cm.grants_per_request", Unit: "ratio", Better: higher},
		metricDef{Name: "cm.restarts", Unit: "count", Better: lower},
		metricDef{Name: "cm.overhead_ns_per_pkt", Unit: "ns", Better: lower},
		metricDef{Name: "libcm.dropped_sends", Unit: "count", Better: lower},
		metricDef{Name: "libcm.delayed_sends", Unit: "count", Better: lower},
		metricDef{Name: "libcm.stale_updates_dropped", Unit: "count", Better: lower},
		metricDef{Name: "app.layer_switches", Unit: "count", Better: lower},
		metricDef{Name: "routeproto.msgs_sent", Unit: "count", Better: lower},
		metricDef{Name: "routeproto.entries_sent", Unit: "count", Better: lower},
		metricDef{Name: "routeproto.triggered_updates", Unit: "count", Better: lower},
		metricDef{Name: "routeproto.route_changes", Unit: "count", Better: lower},
		metricDef{Name: "routeproto.converged", Unit: "bool", Better: higher},
		metricDef{Name: "shard.count", Unit: "count", Better: higher},
		metricDef{Name: "shard.lookahead_ms", Unit: "ms", Better: higher},
		metricDef{Name: "shard.windows", Unit: "count", Better: lower},
		metricDef{Name: "shard.barrier_frac", Unit: "frac", Better: lower},
		metricDef{Name: "shard.imbalance", Unit: "ratio", Better: lower},
		metricDef{Name: "shard.speedup_vs_serial", Unit: "ratio", Better: higher},
		metricDef{Name: "sweep.runs", Unit: "count", Better: higher},
		metricDef{Name: "sweep.runs_per_s", Unit: "1/s", Better: higher},
		metricDef{Name: "sweep.expand_s", Unit: "s", Better: lower},
		metricDef{Name: "sweep.aggregate_emit_s", Unit: "s", Better: lower},
		metricDef{Name: "mem.mallocs", Unit: "count", Better: lower},
		metricDef{Name: "mem.bytes", Unit: "B", Better: lower},
		metricDef{Name: "mem.gc_cycles", Unit: "count", Better: lower},
		metricDef{Name: "mem.gc_pause_ms", Unit: "ms", Better: lower},
		metricDef{Name: "mem.build_mallocs", Unit: "count", Better: lower},
		metricDef{Name: "trace.overhead_frac", Unit: "frac", Better: lower},
	)
	for _, l := range apiLoops {
		defs = append(defs,
			metricDef{Name: l.name + "_" + l.unit, Unit: l.unit, Better: lower},
			metricDef{Name: l.name + "_allocs_op", Unit: "allocs/op", Better: lower},
		)
	}
	return defs
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file at the
// root and the program cannot disagree (bench_test.go compares them).
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bound, so none is written
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return append(out, '\n')
}

// median returns the middle of vs (mean of the middle two for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), which is what
// the acceptance driver computes spreads with. Fewer than two values have no
// spread: both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		return median(vs), median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
