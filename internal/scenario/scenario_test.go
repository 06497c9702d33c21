package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := func() Spec {
		return Spec{
			Name:  "t",
			Links: []LinkSpec{{A: "a", B: "b"}},
			Workloads: []Workload{
				{From: "a", To: "b"},
			},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no links", func(s *Spec) { s.Links = nil }},
		{"self link", func(s *Spec) { s.Links[0].B = "a" }},
		{"negative queue packets", func(s *Spec) { s.Links[0].QueuePackets = -1 }},
		{"negative queue bytes", func(s *Spec) { s.Links[0].QueueBytes = -1 }},
		{"negative bandwidth", func(s *Spec) { s.Links[0].Bandwidth = -1 }},
		{"negative delay", func(s *Spec) { s.Links[0].Delay = -10 * time.Millisecond }},
		{"loss rate above 1", func(s *Spec) { s.Links[0].LossRate = 2 }},
		{"negative loss rate", func(s *Spec) { s.Links[0].LossRate = -0.1 }},
		{"gilbert p_good_bad above 1", func(s *Spec) { s.Links[0].Gilbert = &netsim.GilbertElliott{PGoodBad: 2} }},
		{"unknown router", func(s *Spec) { s.Routers = []string{"ghost"} }},
		{"unknown cm host", func(s *Spec) { s.CMHosts = []string{"ghost"} }},
		{"workload endpoint missing", func(s *Spec) { s.Workloads[0].To = "ghost" }},
		{"workload to itself", func(s *Spec) { s.Workloads[0].To = "a" }},
		{"workload at router", func(s *Spec) { s.Routers = []string{"b"} }},
		{"bad kind", func(s *Spec) { s.Workloads[0].Kind = "warp" }},
		{"bad cc", func(s *Spec) { s.Workloads[0].CC = "vegas" }},
	}
	for _, tc := range cases {
		spec := good()
		tc.mutate(&spec)
		spec.fillDefaults()
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad spec", tc.name)
		}
	}
	spec := good()
	spec.fillDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestBuildRejectsDuplicateLinks(t *testing.T) {
	_, err := Build(Spec{
		Name: "dup",
		Links: []LinkSpec{
			{A: "a", B: "b"},
			{A: "b", B: "a"},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate link") {
		t.Fatalf("expected duplicate-link error, got %v", err)
	}
}

func TestRegistryCatalogue(t *testing.T) {
	names := List()
	if len(names) == 0 {
		t.Fatal("registry empty")
	}
	for _, want := range []string{"dumbbell", "parkinglot", "star", "p2p"} {
		spec, err := Lookup(want)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", want, err)
		}
		spec.fillDefaults()
		if err := spec.Validate(); err != nil {
			t.Fatalf("registered scenario %q invalid: %v", want, err)
		}
		if Describe(want) == "" {
			t.Fatalf("scenario %q has no description", want)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Fatal("Lookup of unknown scenario should fail")
	}
}

// TestMultiHopRouting checks that the engine installs shortest-path routes
// and that packets actually traverse every router of a parking-lot chain.
func TestMultiHopRouting(t *testing.T) {
	spec := ParkingLot(ParkingLotParams{Hops: 3, Duration: 5 * time.Second})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	long := res.Flows[0]
	if long.From != "src" || long.To != "dst" {
		t.Fatalf("first flow should be the long flow, got %+v", long)
	}
	if long.Delivered == 0 {
		t.Fatal("long flow delivered nothing across 4 routers")
	}
	var routers int
	for _, h := range res.Hosts {
		if !h.Router {
			continue
		}
		routers++
		if h.ForwardedPackets == 0 {
			t.Errorf("router %s forwarded nothing", h.Name)
		}
		if h.RouteMissDrops != 0 || h.ForwardMissDrops != 0 || h.TTLExpiredDrops != 0 {
			t.Errorf("router %s dropped transit packets: %+v", h.Name, h.HostStats)
		}
	}
	if routers != 4 {
		t.Fatalf("parking lot with 3 hops should have 4 routers, got %d", routers)
	}
}

// TestDumbbellEnsembleSharingPerDestination is the acceptance scenario: two
// senders and two receivers behind one shared bottleneck, every flow managed
// by the sender's CM. Flows from one sender to the same destination must
// share a macroflow (the ensemble); flows to different destinations must
// not.
func TestDumbbellEnsembleSharingPerDestination(t *testing.T) {
	spec := Dumbbell(DumbbellParams{
		Senders: 2, Receivers: 2, FlowsPerPair: 2, CrossProduct: true,
		Bytes: 256 << 10, Duration: 10 * time.Second,
	})
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	drivers, err := sim.startWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	// Mid-transfer every connection is open: the CM knows all of them.
	sim.RunUntil(500 * time.Millisecond)

	for _, sender := range []string{"s0", "s1"} {
		c := sim.CM(sender)
		if c == nil {
			t.Fatalf("no CM on %s", sender)
		}
		if c.FlowCount() != 4 {
			t.Fatalf("%s: FlowCount = %d mid-transfer, want 4 (2 flows x 2 destinations)", sender, c.FlowCount())
		}
		if c.MacroflowCount() != 2 {
			t.Fatalf("%s: MacroflowCount = %d, want 2 (one per destination)", sender, c.MacroflowCount())
		}
		// Group this sender's flows by destination via the CM's own lookup.
		byDst := map[string][]int{}
		for _, d := range drivers {
			if d.res.From != sender || d.ep == nil {
				continue
			}
			key := netsim.FlowKey{Proto: netsim.ProtoTCP, Src: d.ep.Local(), Dst: d.ep.Remote()}
			id := c.Lookup(key)
			if id < 0 {
				t.Fatalf("%s: CM does not know flow %v", sender, key)
			}
			byDst[d.res.To] = append(byDst[d.res.To], int(id))
		}
		if len(byDst) != 2 {
			t.Fatalf("%s: flows to %d destinations, want 2", sender, len(byDst))
		}
		mfOf := func(id int) any { return c.MacroflowOf(cm.FlowID(id)) }
		for dst, ids := range byDst {
			if len(ids) != 2 {
				t.Fatalf("%s->%s: %d flows, want 2", sender, dst, len(ids))
			}
			if mfOf(ids[0]) != mfOf(ids[1]) {
				t.Errorf("%s->%s: flows to the same destination must share a macroflow", sender, dst)
			}
		}
		if mfOf(byDst["d0"][0]) == mfOf(byDst["d1"][0]) {
			t.Errorf("%s: flows to different destinations must not share a macroflow", sender)
		}
	}

	// The shared state must actually carry traffic: every bulk flow
	// completes within the run.
	sim.RunUntil(spec.Duration)
	res := sim.collect(drivers)
	for _, f := range res.Flows {
		if !f.Completed {
			t.Errorf("flow %d.%d %s->%s incomplete: %+v", f.Workload, f.Flow, f.From, f.To, f)
		}
	}
	// A completed connection is closed on both sides: cm_close released every
	// flow, the driver dropped its endpoint, and the macroflows stay behind
	// with their congestion state for the next connection.
	for _, sender := range []string{"s0", "s1"} {
		c := sim.CM(sender)
		if acct := c.Accounting(); c.FlowCount() != 0 || acct.Opens != 4 || acct.Closes != 4 {
			t.Errorf("%s: %d open flows after %d opens and %d closes, want 0 after 4 and 4",
				sender, c.FlowCount(), acct.Opens, acct.Closes)
		}
		if c.MacroflowCount() != 2 {
			t.Errorf("%s: MacroflowCount = %d after the flows closed, want 2", sender, c.MacroflowCount())
		}
	}
	for _, d := range drivers {
		if d.ep != nil {
			t.Errorf("flow %d.%d still holds its endpoint (%v)", d.res.Workload, d.res.Flow, d.ep.State())
		}
	}
}

func TestStreamWorkloadStaysBacklogged(t *testing.T) {
	spec := Star(StarParams{Leaves: 3, Duration: 5 * time.Second})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("flows = %d", len(res.Flows))
	}
	for _, f := range res.Flows {
		if f.Completed {
			t.Errorf("stream flow %d marked completed", f.Flow)
		}
		if f.Delivered == 0 {
			t.Errorf("stream flow %d delivered nothing", f.Flow)
		}
	}
}

func TestWorkloadStartDelaysDial(t *testing.T) {
	spec := PointToPoint(PointToPointParams{
		Workloads: []Workload{
			{Kind: KindBulk, From: "sender", To: "receiver", Bytes: 100 << 10},
			{Kind: KindBulk, From: "sender", To: "receiver", Bytes: 100 << 10, Start: 2 * time.Second},
		},
		Duration: 10 * time.Second,
	})
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].Established >= time.Second {
		t.Fatalf("immediate flow established at %v", res.Flows[0].Established)
	}
	if res.Flows[1].Established < 2*time.Second {
		t.Fatalf("delayed flow established at %v, want >= 2s", res.Flows[1].Established)
	}
}

// TestPortsFollowDeclarationOrder pins the port assignment: flows listen on
// consecutive ports from 5000 in declaration order, and normalisation does
// not write into a replicated spec's shared backing array.
func TestPortsFollowDeclarationOrder(t *testing.T) {
	base := Spec{
		Name:  "ports",
		Links: []LinkSpec{{A: "a", B: "b"}},
		Workloads: []Workload{
			{From: "a", To: "b", Flows: 3},
			{From: "b", To: "a", Flows: 2},
		},
		Duration: time.Second,
	}
	replica := base // value copy shares the Workloads backing array
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range res.Flows {
		if f.Port != 5000+i {
			t.Fatalf("flow %d (workload %d) on port %d, want %d", i, f.Workload, f.Port, 5000+i)
		}
	}
	if replica.Workloads[0].Flows != 3 || replica.Workloads[0].Kind != "" {
		t.Fatal("fillDefaults mutated the shared backing array of a replicated spec")
	}
}
