package scenario

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
)

// TestWebMixWorkload checks the web-mix kind end to end: staggered Poisson
// arrivals (not a thundering herd at t=0), per-request sampled sizes, and
// most requests completing on an uncongested path.
func TestWebMixWorkload(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Link: netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 5 * time.Millisecond, QueuePackets: 120},
		Workloads: []Workload{{
			Kind: KindWebMix, From: "sender", To: "receiver",
			Flows: 20, Rate: 10, Bytes: 8 << 10, CC: CCCM,
		}},
		Duration: 20 * time.Second,
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 20 {
		t.Fatalf("flows = %d, want 20", len(res.Flows))
	}
	established := make(map[time.Duration]bool)
	completed := 0
	var sizes []int64
	for _, f := range res.Flows {
		if f.Established > 0 {
			established[f.Established] = true
		}
		if f.Completed {
			completed++
			sizes = append(sizes, f.Delivered)
		}
	}
	// Arrivals are a Poisson process: essentially every establishment time
	// is distinct, and at 10 req/s over 20 s nearly all 20 requests both
	// arrive and complete on a 10 Mbps path.
	if len(established) < 15 {
		t.Fatalf("only %d distinct establishment times — arrivals not staggered", len(established))
	}
	if completed < 15 {
		t.Fatalf("only %d/20 requests completed", completed)
	}
	// Sizes are sampled per request, not constant.
	distinct := make(map[int64]bool)
	for _, s := range sizes {
		distinct[s] = true
	}
	if len(distinct) < 5 {
		t.Fatalf("request sizes not sampled: %v", sizes)
	}
	// The whole thing is deterministic.
	res2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(res)
	j2, _ := json.Marshal(res2)
	if string(j1) != string(j2) {
		t.Fatal("web-mix runs are not deterministic")
	}
}

// Delayed dials go out from one pending event per workload, which dials what
// is due and schedules the next start: a web mix of any size — and a bulk
// workload whose flows share one Start — holds one slot in the event heap,
// and every flow still dials at its own planned time.
func TestDelayedDialsChainFromOnePendingEvent(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Link: netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 5 * time.Millisecond, QueuePackets: 120},
		Workloads: []Workload{
			{Kind: KindWebMix, From: "sender", To: "receiver", Flows: 20, Rate: 10, Bytes: 8 << 10, CC: CCCM},
			{Kind: KindBulk, From: "sender", To: "receiver", Flows: 3, Bytes: 8 << 10, Start: time.Second},
		},
		Duration: 20 * time.Second,
	})
	sim := MustBuild(spec)
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if n := sim.Host("sender").Clock().Len(); n != 2 {
		t.Fatalf("%d events pending after Start, want one per workload", n)
	}
	plan := planWebMix(sim.Spec.Seed, 0, &sim.Spec.Workloads[0])
	sim.RunToEnd()
	res := sim.Finish()
	// Establishment is one handshake after the dial: 2 x 5 ms of propagation
	// plus serialisation and whatever the SYN queues behind.
	const handshake, slack = 10 * time.Millisecond, 5 * time.Millisecond
	for i, f := range res.Flows {
		start := time.Second
		if f.Workload == 0 {
			start = plan.start[i]
		}
		if d := f.Established - start; d < handshake || d > handshake+slack {
			t.Errorf("flow %d.%d planned at %v established at %v, want one handshake later", f.Workload, f.Flow, start, f.Established)
		}
	}
}

// TestWebMixSharesMacroflow: a CM-managed web mix aggregates all its short
// requests into the sender's macroflow to the destination — the ensemble
// story the workload exists to tell.
func TestWebMixSharesMacroflow(t *testing.T) {
	spec, err := Lookup("webmix")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 8 * time.Second
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CMs) != 1 {
		t.Fatalf("cm hosts = %d, want 1 (the web-mix sender)", len(res.CMs))
	}
	// All requests target one destination host, so the CM holds exactly one
	// macroflow however many requests have come and gone.
	if res.CMs[0].Macroflows != 1 {
		t.Fatalf("macroflows = %d, want 1", res.CMs[0].Macroflows)
	}
	var webDelivered int64
	for _, f := range res.Flows {
		if f.Workload == 0 {
			webDelivered += f.Delivered
		}
	}
	if webDelivered == 0 {
		t.Fatal("web mix delivered nothing")
	}
}

// TestWebMixValidation: webmix defaults fill in, and a negative rate is
// rejected.
func TestWebMixValidation(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Workloads: []Workload{{Kind: KindWebMix, From: "sender", To: "receiver"}},
	})
	spec.fillDefaults()
	w := spec.Workloads[0]
	if w.Flows != 32 || w.Rate != 10 || w.Bytes != 12<<10 {
		t.Fatalf("webmix defaults wrong: %+v", w)
	}
	bad := PointToPoint(PointToPointParams{
		Workloads: []Workload{{Kind: KindWebMix, From: "sender", To: "receiver", Rate: -1}},
	})
	bad.fillDefaults()
	if err := bad.Validate(); err == nil {
		t.Fatal("negative rate must fail validation")
	}
}

// TestGeneratorsExpandIntoTimeline: a spec with generators runs with the
// generated events visible (and firing) in the result records, merged in
// time order with declared events.
func TestGeneratorsExpandIntoTimeline(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Link: netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 5 * time.Millisecond, QueuePackets: 120},
		Workloads: []Workload{{
			Kind: KindStream, From: "sender", To: "receiver", CC: CCCM,
		}},
		Duration: 10 * time.Second,
	})
	spec.Events = []dynamics.Event{
		{At: 4 * time.Second, Kind: dynamics.SetBandwidth, Link: 0, Bandwidth: 5 * netsim.Mbps},
	}
	spec.Generators = []dynamics.Generator{
		{Kind: dynamics.GenPoissonFlaps, Link: 0, MeanUp: 2 * time.Second, MeanDown: 300 * time.Millisecond},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) < 3 {
		t.Fatalf("expected the declared event plus generated flap pairs, got %d records", len(res.Events))
	}
	downs, ups, declared := 0, 0, 0
	var prev time.Duration
	for i, ev := range res.Events {
		if ev.At < prev {
			t.Fatalf("record %d out of time order: %v after %v", i, ev.At, prev)
		}
		prev = ev.At
		switch ev.Kind {
		case dynamics.LinkDown:
			downs++
		case dynamics.LinkUp:
			ups++
		case dynamics.SetBandwidth:
			declared++
		}
		if ev.At < spec.Duration && !ev.Fired {
			t.Fatalf("record %d (%s at %v) did not fire", i, ev.Kind, ev.At)
		}
	}
	if downs == 0 || downs != ups || declared != 1 {
		t.Fatalf("record mix wrong: downs=%d ups=%d declared=%d", downs, ups, declared)
	}
	// The outages must have been real. A down link triggers route
	// recomputation, so traffic offered during an outage dies at the sending
	// host as no-route drops (or on the link as down drops if it was already
	// in the queue path).
	drops := 0
	for _, l := range res.Links {
		drops += l.DownDrops
	}
	for _, h := range res.Hosts {
		drops += h.NoRouteDrops + h.RouteMissDrops + h.ForwardMissDrops
	}
	if drops == 0 {
		t.Fatal("generated outages dropped nothing — flaps did not reach the network")
	}
}
