package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
)

// churnProbeSpec returns the churn scenario (dynamics, CM restarts, host
// moves, notify faults all active) with a representative probe set.
func churnProbeSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := Lookup("churn")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 6 * time.Second
	spec.Probes = []probe.Spec{
		{Target: "link[0].queue_depth"},
		{Target: "link[0].delivered_bytes", Interval: 100 * time.Millisecond},
		{Target: "host[" + spec.Workloads[0].From + "].sent_bytes"},
		{Target: "cm[" + spec.Workloads[0].From + "].cwnd", Name: "cwnd"},
		{Target: "cm[" + spec.Workloads[0].From + "].rate", Name: "rate"},
	}
	return spec
}

// TestProbeSeriesDeterministic is the probe acceptance check: with dynamics
// and churn active, the sampled series are byte-identical across a serial
// run, a parallel batch of replicas, and a 4-shard run of the same spec.
func TestProbeSeriesDeterministic(t *testing.T) {
	spec := churnProbeSpec(t)
	serial, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Series) != len(spec.Probes) {
		t.Fatalf("got %d series, want %d", len(serial.Series), len(spec.Probes))
	}
	for _, s := range serial.Series {
		if s.Len() == 0 {
			t.Fatalf("series %s is empty", s.Name)
		}
	}
	want, err := json.Marshal(serial.Series)
	if err != nil {
		t.Fatal(err)
	}

	// A parallel batch of replicas: every outcome's series must match.
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = spec
	}
	for i, o := range (Runner{Parallel: 8}).RunAll(specs) {
		if o.Err != "" {
			t.Fatalf("replica %d: %s", i, o.Err)
		}
		got, err := json.Marshal(o.Result.Series)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("replica %d: parallel series differ from serial", i)
		}
	}

	sharded := spec
	sharded.Shards = 4
	res, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Series)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("4-shard series differ from serial")
	}
}

// TestProbeTargetsMatchAggregateTwins: every probe samples by one rule and
// reads a field through one reader, so link[0].<f> equals links.<link 0's
// forward name>.<f> and host[h].<f> equals hosts.h.<f>, sample for sample,
// with dynamics and churn active, serial and on four shards. The hosts are
// the TCP sender s0 and the layered-UDP sender s1, whose application timers
// send at whole milliseconds, the instants a 1 ms probe samples at.
func TestProbeTargetsMatchAggregateTwins(t *testing.T) {
	spec := churnProbeSpec(t)
	fwd := MustBuild(spec).Duplex(0).Forward.Config().Name
	var pairs [][2]string
	for _, f := range probeFieldNames(probe.TargetLinks) {
		pairs = append(pairs, [2]string{"link[0]." + f, "links." + fwd + "." + f})
	}
	for _, host := range []string{"s0", "s1"} {
		for _, f := range probeFieldNames(probe.TargetHosts) {
			pairs = append(pairs, [2]string{"host[" + host + "]." + f, "hosts." + host + "." + f})
		}
	}
	spec.Probes = nil
	for _, p := range pairs {
		spec.Probes = append(spec.Probes,
			probe.Spec{Target: p[0], Interval: time.Millisecond},
			probe.Spec{Target: p[1], Interval: time.Millisecond})
	}
	for _, shards := range []int{0, 4} {
		spec.Shards = shards
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			one, agg := res.Series[2*i].Points, res.Series[2*i+1].Points
			if len(one) != 6000 || len(agg) != len(one) {
				t.Fatalf("shards=%d: %s has %d samples, %s %d; want 6000 each", shards, p[0], len(one), p[1], len(agg))
			}
			for j := range one {
				if one[j] != agg[j] {
					t.Errorf("shards=%d: at %v %s reads %v, %s %v", shards, one[j].T, p[0], one[j].V, p[1], agg[j].V)
					break
				}
			}
		}
		if sent := res.Series[2].Points; sent[len(sent)-1].V == 0 {
			t.Fatalf("shards=%d: link[0] never sent a packet; the comparison is vacuous", shards)
		}
	}
}

// TestProbeSeriesNamesAndCadence pins the series naming rules (explicit Name
// overrides the target path) and the default/explicit sampling cadence.
func TestProbeSeriesNamesAndCadence(t *testing.T) {
	spec := churnProbeSpec(t)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Name; got != "link[0].queue_depth" {
		t.Fatalf("series 0 named %q, want the target path", got)
	}
	if got := res.Series[3].Name; got != "cwnd" {
		t.Fatalf("series 3 named %q, want the Name override", got)
	}
	// 6 s at the default 250 ms → 24 samples; at 100 ms → 60.
	if got := res.Series[0].Len(); got != 24 {
		t.Fatalf("default-interval series has %d samples, want 24", got)
	}
	if got := res.Series[1].Len(); got != 60 {
		t.Fatalf("100ms series has %d samples, want 60", got)
	}
}

// TestProbeValidation pins spec validation of probe targets: bad grammar,
// out-of-range links, unknown hosts and non-CM hosts are all build errors.
func TestProbeValidation(t *testing.T) {
	base, err := Lookup("p2p")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ target, want string }{
		{"link[0].no_such_field", "unknown field"},
		{"cm[sender].queue_depth", "unknown field"}, // a field of another kind
		{"shard.bogus", "unknown field"},
		{"links.*.utilization", "unknown field"}, // a ratio does not sum
		{"link[9].queue_depth", "out of range"},
		{"host[nobody].sent_bytes", "not in topology"},
		{"cm[receiver].rate", "no Congestion Manager"},
		{"gibberish", "want link[i]"},
	} {
		spec := base
		spec.Probes = []probe.Spec{{Target: tc.target}}
		if _, err := Build(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("probe %q: error %v, want %q", tc.target, err, tc.want)
		}
	}
}

// TestResultWithoutProbesUnchanged guards the observation-only contract from
// the other side: adding probes and tracing to a spec must not perturb any
// non-Series result field relative to the bare run.
func TestResultWithoutProbesUnchanged(t *testing.T) {
	spec := churnProbeSpec(t)
	bare := spec
	bare.Probes = nil
	bare.TraceDepth = 0
	want, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	spec.TraceDepth = 512
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	got.Series = nil
	if !reflect.DeepEqual(want, got) {
		t.Fatal("probes+tracing changed the non-Series result")
	}
}

// TestFlightRecorderCapturesChurn checks the ring contents: a churn run with
// tracing armed must retain packet, CM and fault events, and DumpTrace must
// render them.
func TestFlightRecorderCapturesChurn(t *testing.T) {
	spec := churnProbeSpec(t)
	spec.TraceDepth = 4096
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunToEnd()
	kinds := make(map[probe.EventKind]int)
	for _, name := range sim.Nodes() {
		r := sim.Recorder(name)
		if r == nil {
			t.Fatalf("host %s has no recorder", name)
		}
		for _, ev := range r.Events() {
			kinds[ev.Kind]++
		}
	}
	for _, k := range []probe.EventKind{
		probe.EvEnqueue, probe.EvDeliver, probe.EvRequest, probe.EvGrant,
		probe.EvNotify, probe.EvFault,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
	var buf bytes.Buffer
	if n := sim.DumpTrace(&buf); n == 0 || buf.Len() == 0 {
		t.Fatal("DumpTrace wrote nothing")
	}
	if !strings.Contains(buf.String(), "cm-grant") {
		t.Fatal("dump is missing cm-grant lines")
	}
}

// TestSnapshotsSerialAndSharded checks mid-run snapshot capture serial and on
// four shards: same capture times, monotonic progress, interior state
// consistent with the end state, and each serial snapshot's Result equal to
// the 4-shard one byte for byte.
func TestSnapshotsSerialAndSharded(t *testing.T) {
	spec := churnProbeSpec(t)
	spec.Probes = nil
	spec.SnapshotEvery = time.Second

	var serial []Snapshot
	for _, shards := range []int{0, 4} {
		sp := spec
		sp.Shards = shards
		sim, err := Build(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		sim.RunToEnd()
		end := sim.Finish()
		snaps := sim.Snapshots()
		if len(snaps) != 6 {
			t.Fatalf("shards=%d: %d snapshots, want 6", shards, len(snaps))
		}
		var prev int64
		for i, sn := range snaps {
			if want := time.Duration(i+1) * time.Second; sn.At != want {
				t.Fatalf("shards=%d: snapshot %d at %v, want %v", shards, i, sn.At, want)
			}
			var delivered int64
			for _, f := range sn.Result.Flows {
				delivered += f.Delivered
			}
			if delivered < prev {
				t.Fatalf("shards=%d: delivered bytes regressed at snapshot %d", shards, i)
			}
			prev = delivered
		}
		var endDelivered int64
		for _, f := range end.Flows {
			endDelivered += f.Delivered
		}
		if prev != endDelivered {
			t.Fatalf("shards=%d: final snapshot delivered %d, end state %d (snapshot at t=duration must equal the end state)",
				shards, prev, endDelivered)
		}
		if shards == 0 {
			serial = snaps
			continue
		}
		if !sim.Sharded() {
			t.Fatal("the churn spec must really shard")
		}
		for i, sn := range snaps {
			sj, err := json.Marshal(serial[i].Result)
			if err != nil {
				t.Fatal(err)
			}
			kj, err := json.Marshal(sn.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(kj) {
				t.Errorf("snapshot at %v: serial and 4-shard Results differ", sn.At)
			}
		}
	}
}

// TestExecutionTimeline checks the trace_event export: a 4-shard grid run
// yields window spans on every shard lane plus coordinator barriers, a serial
// run is the one-shard layout with a single window span and no barrier, and
// the export is valid trace_event JSON.
func TestExecutionTimeline(t *testing.T) {
	spec, err := Lookup("grid")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = time.Second
	spec.Shards = 4
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	tl := sim.EnableExecutionTimeline()
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunToEnd()
	// 1 s at 10 ms lookahead → 100 non-final windows per shard lane plus the
	// final inclusive one, and one barrier per non-final window.
	perLane := make(map[int]int)
	for _, s := range tl.Spans() {
		perLane[s.Lane]++
	}
	for lane := 0; lane < 4; lane++ {
		if got := perLane[lane]; got != 101 {
			t.Fatalf("shard lane %d has %d spans, want 101", lane, got)
		}
	}
	if got := perLane[4]; got != 100 {
		t.Fatalf("coordinator lane has %d spans, want 100", got)
	}
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	names := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	if names["window"] != 4*101 || names["barrier"] != 100 {
		t.Fatalf("trace events: %d windows, %d barriers; want 404 and 100", names["window"], names["barrier"])
	}

	serial := spec
	serial.Shards = 0
	sim2, err := Build(serial)
	if err != nil {
		t.Fatal(err)
	}
	tl2 := sim2.EnableExecutionTimeline()
	if err := sim2.Start(); err != nil {
		t.Fatal(err)
	}
	sim2.RunToEnd()
	spans := tl2.Spans()
	if len(spans) != 1 || spans[0].Lane != 0 || spans[0].Name != "window" || spans[0].VirtEnd != spec.Duration {
		t.Fatalf("serial spans %+v, want one window span on lane 0 through %v", spans, spec.Duration)
	}
}
