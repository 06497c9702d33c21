package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
)

// TestFlakyDumbbellMacroflowCollapseAndReprobe is the acceptance check for
// the dynamics subsystem: when the shared bottleneck goes down mid-run, the
// sender's CM macroflow window collapses (timeouts report persistent
// congestion); after the link comes back up the macroflow probes its window
// back open and traffic resumes.
func TestFlakyDumbbellMacroflowCollapseAndReprobe(t *testing.T) {
	spec := FlakyDumbbell(FlakyDumbbellParams{
		DownAt:   6 * time.Second,
		UpAt:     10 * time.Second,
		Dumbbell: DumbbellParams{Duration: 30 * time.Second},
	})
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}

	// Just before the outage the stream has opened its window well beyond
	// the initial one.
	sim.RunUntil(5900 * time.Millisecond)
	mf := sim.CM("s0").MacroflowTo("d0")
	if mf == nil {
		t.Fatal("no macroflow s0->d0")
	}
	wBefore := mf.Window()

	// Late in the outage the window has collapsed.
	sim.RunUntil(9900 * time.Millisecond)
	wDuring := mf.Window()
	if wDuring >= wBefore {
		t.Fatalf("window did not collapse on link-down: before=%d during=%d", wBefore, wDuring)
	}
	if wDuring > wBefore/2 {
		t.Fatalf("window only fell to %d of %d during a total outage", wDuring, wBefore)
	}
	deliveredDuring := sim.Host("d0").Stats().ReceivedBytes

	// Well after recovery the window has been probed back open and data
	// flows again.
	sim.RunUntil(spec.Duration)
	wAfter := mf.Window()
	if wAfter <= wDuring {
		t.Fatalf("window did not re-probe after link-up: during=%d after=%d", wDuring, wAfter)
	}
	deliveredAfter := sim.Host("d0").Stats().ReceivedBytes
	if deliveredAfter <= deliveredDuring {
		t.Fatal("no data delivered after the link recovered")
	}

	res := sim.Finish()
	if len(res.Events) != 2 || !res.Events[0].Fired || !res.Events[1].Fired {
		t.Fatalf("event records wrong: %+v", res.Events)
	}
	for _, ev := range res.Events {
		if ev.RoutesChanged == 0 {
			t.Fatalf("link event changed no routes: %+v", ev)
		}
	}
	// The outage must be visible in the IP accounting: routes are withdrawn
	// the instant the link fails, so packets in flight toward the dead
	// bottleneck die as route-miss drops at the routers and retransmissions
	// die as no-route drops at the senders.
	var missDrops int
	for _, h := range res.Hosts {
		missDrops += h.RouteMissDrops + h.ForwardMissDrops + h.NoRouteDrops
	}
	if missDrops == 0 {
		t.Fatal("no route-miss/no-route drops recorded across the outage")
	}
}

// TestEventsDeclaredOutOfOrderFireOnTime declares the flaky dumbbell's
// link-up before its link-down: each still fires at its own time, on both
// directions of the bottleneck, and both records say they fired.
func TestEventsDeclaredOutOfOrderFireOnTime(t *testing.T) {
	spec := FlakyDumbbell(FlakyDumbbellParams{
		DownAt:   2 * time.Second,
		UpAt:     4 * time.Second,
		Dumbbell: DumbbellParams{Duration: 5 * time.Second},
	})
	spec.Events[0], spec.Events[1] = spec.Events[1], spec.Events[0]
	sim := MustBuild(spec)
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	bottleneck := sim.Duplex(spec.Events[0].Link)
	for _, step := range []struct {
		at   time.Duration
		down bool
	}{{1900 * time.Millisecond, false}, {3 * time.Second, true}, {spec.Duration, false}} {
		sim.RunUntil(step.at)
		if fwd, rev := bottleneck.Forward.IsDown(), bottleneck.Reverse.IsDown(); fwd != step.down || rev != step.down {
			t.Fatalf("at %v: bottleneck down=%v/%v (fwd/rev), want %v", step.at, fwd, rev, step.down)
		}
	}
	for i, r := range sim.Finish().Events {
		if !r.Fired {
			t.Errorf("record %d (%s at %v) did not fire", i, r.Kind, r.At)
		}
	}
}

// TestDynamicsDeterminismSerialVsParallel pins byte-identical results with an
// event timeline active: the dynamics scenarios (outage, bursty loss with a
// scheduled fade, time-zero asymmetry) run twice each, fanned across 8
// workers, and must equal the serial run on the JSON wire encoding.
func TestDynamicsDeterminismSerialVsParallel(t *testing.T) {
	var specs []Spec
	for _, name := range []string{"flaky-dumbbell", "wireless", "asymmetric"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Events) == 0 {
			t.Fatalf("%s: dynamics scenario has no events", name)
		}
		specs = append(specs, spec, spec)
	}
	serial := Runner{Parallel: 1}.RunAll(specs)
	parallel := Runner{Parallel: 8}.RunAll(specs)
	for i := range serial {
		if serial[i].Err != "" || parallel[i].Err != "" {
			t.Fatalf("outcome %d errored: serial=%q parallel=%q", i, serial[i].Err, parallel[i].Err)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("serial and parallel result structs differ under dynamics")
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatal("serial and parallel JSON encodings differ under dynamics")
	}
}

// TestTimeZeroEventAppliesAtBuild checks that the asymmetric scenario's
// time-zero reverse-bandwidth event reconfigures the link before any packet
// is sent, and that its record says it fired while the later squeeze's does
// not yet.
func TestTimeZeroEventAppliesAtBuild(t *testing.T) {
	sim := MustBuild(Asymmetric(AsymmetricParams{SqueezeAt: time.Second}))
	if got := sim.Duplex(0).Reverse.Config().Bandwidth; got != 128*netsim.Kbps {
		t.Fatalf("reverse bandwidth %v at build, want 128Kbps", got)
	}
	if got := sim.Duplex(0).Forward.Config().Bandwidth; got != 10*netsim.Mbps {
		t.Fatalf("forward bandwidth %v at build, want 10Mbps", got)
	}
	recs := sim.Finish().Events
	if len(recs) != 2 || !recs[0].Fired || recs[1].Fired {
		t.Fatalf("records at build = %+v, want the time-zero event fired and the squeeze not", recs)
	}
}

// TestFiredEventRecords runs one small spec per row on a real Sim and checks
// what its events changed and what their records say.
func TestFiredEventRecords(t *testing.T) {
	p2p := func(events ...dynamics.Event) Spec {
		spec := PointToPoint(PointToPointParams{
			Duration:  2 * time.Second,
			Workloads: []Workload{{From: "sender", To: "receiver", CC: CCCM, Flows: 3, Bytes: 1 << 20}},
		})
		spec.Events = events
		return spec
	}
	const restartAt = 500 * time.Millisecond
	for _, tc := range []struct {
		name  string
		spec  Spec
		runTo time.Duration
		check func(t *testing.T, sim *Sim, recs []dynamics.Record)
	}{
		{
			name: "a reverse event changes only the reverse link",
			spec: p2p(dynamics.Event{At: time.Second, Kind: dynamics.SetBandwidth, Link: 0,
				Direction: dynamics.DirReverse, Bandwidth: 64 * netsim.Kbps}),
			check: func(t *testing.T, sim *Sim, _ []dynamics.Record) {
				d := sim.Duplex(0)
				if fwd, rev := d.Forward.Config().Bandwidth, d.Reverse.Config().Bandwidth; fwd != 10*netsim.Mbps || rev != 64*netsim.Kbps {
					t.Fatalf("bandwidth fwd=%v rev=%v, want 10Mbps and 64Kbps", fwd, rev)
				}
			},
		},
		{
			name: "a forward event changes only the forward link",
			spec: p2p(dynamics.Event{At: time.Second, Kind: dynamics.SetBandwidth, Link: 0,
				Direction: dynamics.DirForward, Bandwidth: 64 * netsim.Kbps}),
			check: func(t *testing.T, sim *Sim, _ []dynamics.Record) {
				d := sim.Duplex(0)
				if fwd, rev := d.Forward.Config().Bandwidth, d.Reverse.Config().Bandwidth; fwd != 64*netsim.Kbps || rev != 10*netsim.Mbps {
					t.Fatalf("bandwidth fwd=%v rev=%v, want 64Kbps and 10Mbps", fwd, rev)
				}
			},
		},
		{
			name: "only link-down and link-up records carry routes_changed",
			spec: p2p(
				dynamics.Event{At: 250 * time.Millisecond, Kind: dynamics.SetGilbert, Link: 0,
					Gilbert: &netsim.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.5}},
				dynamics.Event{At: 500 * time.Millisecond, Kind: dynamics.LinkDown, Link: 0},
				dynamics.Event{At: 750 * time.Millisecond, Kind: dynamics.SetBandwidth, Link: 0, Bandwidth: netsim.Mbps},
				dynamics.Event{At: time.Second, Kind: dynamics.LinkUp, Link: 0},
			),
			check: func(t *testing.T, sim *Sim, recs []dynamics.Record) {
				for _, r := range recs {
					topo := r.Kind == dynamics.LinkDown || r.Kind == dynamics.LinkUp
					if !r.Fired || (r.RoutesChanged > 0) != topo {
						t.Errorf("%s at %v: fired=%v routes_changed=%d", r.Kind, r.At, r.Fired, r.RoutesChanged)
					}
				}
				if sim.Host("sender").RouteTo("receiver") == nil {
					t.Error("no route sender->receiver after link-up")
				}
			},
		},
		{
			name:  "a cm-restart record counts the flows it wiped",
			spec:  p2p(dynamics.Event{At: restartAt, Kind: dynamics.CMRestart, Host: "sender"}),
			runTo: restartAt - 1,
			check: func(t *testing.T, sim *Sim, _ []dynamics.Record) {
				live := sim.CM("sender").FlowCount()
				if live == 0 {
					t.Fatal("no CM flows open just before the restart")
				}
				sim.RunUntil(sim.Spec.Duration)
				if r := sim.Finish().Events[0]; !r.Fired || r.FlowsWiped != live {
					t.Fatalf("record %+v, want fired with flows_wiped=%d", r, live)
				}
			},
		},
		{
			name: "an event after Duration is past_end and never fires",
			spec: p2p(
				dynamics.Event{At: time.Second, Kind: dynamics.SetBandwidth, Link: 0, Bandwidth: netsim.Mbps},
				dynamics.Event{At: 3 * time.Second, Kind: dynamics.LinkDown, Link: 0},
				dynamics.Event{At: time.Minute, Kind: dynamics.CMRestart, Host: "sender"},
			),
			runTo: time.Hour,
			check: func(t *testing.T, sim *Sim, recs []dynamics.Record) {
				if r := recs[0]; !r.Fired || r.PastEnd {
					t.Errorf("in-run event: fired=%v past_end=%v", r.Fired, r.PastEnd)
				}
				for _, r := range recs[1:] {
					if r.Fired || !r.PastEnd {
						t.Errorf("%s at %v: fired=%v past_end=%v, want unfired and past-end", r.Kind, r.At, r.Fired, r.PastEnd)
					}
				}
				if sim.Duplex(0).Forward.IsDown() || sim.CM("sender").Epoch() != 0 {
					t.Error("a past-end event changed the network")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := MustBuild(tc.spec)
			if err := sim.Start(); err != nil {
				t.Fatal(err)
			}
			runTo := tc.runTo
			if runTo == 0 {
				runTo = tc.spec.Duration
			}
			sim.RunUntil(runTo)
			tc.check(t, sim, sim.Finish().Events)
		})
	}
}

// TestGilbertOccupancyReachesResults checks that a wireless run reports
// Gilbert-Elliott state occupancy and burst drops.
func TestGilbertOccupancyReachesResults(t *testing.T) {
	spec := Wireless(WirelessParams{Duration: 10 * time.Second})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var fwd *LinkResult
	for i := range res.Links {
		if res.Links[i].Name == "sender<->receiver-fwd" {
			fwd = &res.Links[i]
		}
	}
	if fwd == nil {
		t.Fatal("forward link missing from results")
	}
	if fwd.GEGoodPackets == 0 || fwd.GETransitions == 0 {
		t.Fatalf("Gilbert-Elliott counters empty: %+v", fwd.LinkStats)
	}
	if fwd.BurstDrops == 0 {
		t.Fatalf("no burst drops over a 10s bursty channel: %+v", fwd.LinkStats)
	}
}

// TestUDPWorkloadKinds runs both layered UDP kinds declaratively and checks
// they stream, adapt and surface application counters, with the CM installed
// automatically on the sending host.
func TestUDPWorkloadKinds(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Workloads: []Workload{
			{Kind: KindUDPALF, From: "sender", To: "receiver"},
			{Kind: KindUDPRate, From: "sender", To: "receiver", Start: time.Second},
		},
		Duration: 10 * time.Second,
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(res.Flows))
	}
	for _, f := range res.Flows {
		if f.CC != CCCM {
			t.Errorf("flow %d.%d cc = %q, want cm (UDP kinds are CM clients)", f.Workload, f.Flow, f.CC)
		}
		if f.Delivered == 0 {
			t.Errorf("flow %d.%d delivered nothing", f.Workload, f.Flow)
		}
		if f.Completed {
			t.Errorf("flow %d.%d marked completed; layered streams never complete", f.Workload, f.Flow)
		}
		if f.ThroughputKBps <= 0 {
			t.Errorf("flow %d.%d has no throughput", f.Workload, f.Flow)
		}
	}
	if res.Flows[1].Established < time.Second {
		t.Fatalf("delayed UDP flow established at %v, want >= 1s", res.Flows[1].Established)
	}
	if len(res.CMs) != 1 || res.CMs[0].Flows != 2 {
		t.Fatalf("CM summary wrong: %+v", res.CMs)
	}
	// Both servers interacted with the CM through libcm.
	if res.CMs[0].Queries == 0 || res.CMs[0].Updates == 0 {
		t.Fatalf("CM accounting shows no libcm activity: %+v", res.CMs[0].Accounting)
	}
}

// TestUDPKindRejectsNativeCC pins the validation rule: the layered UDP
// applications are CM clients and cannot run under the native controller.
func TestUDPKindRejectsNativeCC(t *testing.T) {
	spec := Spec{
		Name:      "bad",
		Links:     []LinkSpec{{A: "a", B: "b"}},
		Workloads: []Workload{{Kind: KindUDPRate, From: "a", To: "b", CC: CCNative}},
	}
	spec.fillDefaults()
	if err := spec.Validate(); err == nil {
		t.Fatal("udp-rate with native cc accepted")
	}
}

// TestEventValidationInSpec checks that event errors surface through
// Spec.Validate with scenario context.
func TestEventValidationInSpec(t *testing.T) {
	spec := Spec{
		Name:      "bad-events",
		Links:     []LinkSpec{{A: "a", B: "b"}},
		Workloads: []Workload{{From: "a", To: "b"}},
		Events:    []dynamics.Event{{Kind: dynamics.LinkDown, Link: 5}},
	}
	spec.fillDefaults()
	if err := spec.Validate(); err == nil {
		t.Fatal("out-of-range event link accepted")
	}
	spec.Events = []dynamics.Event{{Kind: "warp", Link: 0}}
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown event kind accepted")
	}
}
