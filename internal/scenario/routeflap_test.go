package scenario

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/probe"
)

// routeDropTotal sums every routing-failure drop counter across the run's
// hosts: the blackhole symptom set (see protoPlane.routeDrops).
func routeDropTotal(res *Result) int64 {
	var n int64
	for _, h := range res.Hosts {
		n += int64(h.NoRouteDrops + h.RouteMissDrops + h.ForwardMissDrops + h.TTLExpiredDrops)
	}
	return n
}

// TestRouteFlapConvergence is the tentpole acceptance run: the fat-tree under
// the distance-vector control plane, one core uplink flapping while the
// surviving uplinks drop, delay and duplicate routing messages. The blackhole
// window must open (the flap strands in-flight routes, so traffic drops) and
// must close by the convergence deadline: no routing-failure drops after it,
// no forwarding loops, no unreachable pairs, no unflushed triggered updates.
func TestRouteFlapConvergence(t *testing.T) {
	spec, err := Lookup("routeflap")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr := res.Routing
	if rr == nil {
		t.Fatal("protocol-mode run produced no routing result")
	}
	if rr.Mode != RoutingHier {
		t.Fatalf("routing mode = %q, want %q", rr.Mode, RoutingHier)
	}
	if !rr.Converged {
		t.Fatalf("run did not pass its convergence deadline (%v, duration %v)",
			rr.ConvergenceDeadline, spec.Duration)
	}
	if rr.PostConvergenceRouteDrops != 0 {
		t.Errorf("blackhole window failed to close: %d routing-failure drops after the deadline %v",
			rr.PostConvergenceRouteDrops, rr.ConvergenceDeadline)
	}
	if rr.LoopPairs != 0 {
		t.Errorf("forwarding audit found %d looping pairs (of %d)", rr.LoopPairs, rr.AuditedPairs)
	}
	if rr.UnreachedPairs != 0 {
		t.Errorf("forwarding audit found %d unreached pairs (of %d) after the link came back",
			rr.UnreachedPairs, rr.AuditedPairs)
	}
	if rr.PendingAtEnd != 0 {
		t.Errorf("%d agent(s) still hold unflushed triggered updates after the deadline", rr.PendingAtEnd)
	}
	if rr.AuditedPairs == 0 {
		t.Error("forwarding audit did not run")
	}
	// The flap must actually have hurt: the withdraw wave cannot outrun
	// in-flight traffic, so the window before the deadline sees drops.
	if routeDropTotal(res) == 0 {
		t.Error("no routing-failure drops at all: the flap never opened a blackhole window")
	}
	if rr.FaultDropped == 0 {
		t.Error("control-plane fault injection never dropped a routing message")
	}
	if rr.HolddownSuppressed == 0 && rr.TriggeredUpdates == 0 {
		t.Error("control plane shows no reaction to the flap")
	}
}

// TestProtocolWarmStartQuiescent pins the warm-start contract in both modes:
// with no topology events the seeded tables are already the converged state,
// so the control plane must never change a table entry or drop a packet —
// refreshes flow, nothing churns.
func TestProtocolWarmStartQuiescent(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode string
	}{
		{"parkinglot", RoutingExact},
		{"fattree", RoutingHier},
	} {
		spec, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		spec.RouteSync = RouteSyncProtocol
		spec.Duration = 3 * time.Second
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rr := res.Routing
		if rr == nil || rr.Mode != tc.mode {
			t.Fatalf("%s: routing result %+v, want mode %q", tc.name, rr, tc.mode)
		}
		if !rr.Converged || rr.ConvergenceDeadline != 0 {
			t.Errorf("%s: eventless run must be converged from t=0, got deadline %v converged %v",
				tc.name, rr.ConvergenceDeadline, rr.Converged)
		}
		if rr.TableChanges != 0 {
			t.Errorf("%s: warm start churned %d table entries; seeding disagrees with the protocol fixpoint",
				tc.name, rr.TableChanges)
		}
		if got := routeDropTotal(res); got != 0 {
			t.Errorf("%s: %d routing-failure drops in a static topology", tc.name, got)
		}
		if rr.MessagesSent == 0 || rr.Refreshes == 0 {
			t.Errorf("%s: control plane sent no refresh traffic (messages %d, refreshes %d)",
				tc.name, rr.MessagesSent, rr.Refreshes)
		}
		if rr.LoopPairs != 0 || rr.UnreachedPairs != 0 {
			t.Errorf("%s: audit found %d loops / %d unreached of %d pairs",
				tc.name, rr.LoopPairs, rr.UnreachedPairs, rr.AuditedPairs)
		}
	}
}

// TestProtocolWarmStartMatchesOracle holds the warm-start seeding to BFS on
// random topologies (exact mode) and fat-trees (hier mode): right after Build
// has started every agent, each agent's metric for each destination is the
// hop count to that destination's nearest originator, and every host's table
// equals the oracle-mode build of the same spec.
func TestProtocolWarmStartMatchesOracle(t *testing.T) {
	check := func(t *testing.T, spec Spec) {
		spec.RouteSync = RouteSyncOracle
		ref, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.RouteSync = RouteSyncProtocol
		sim, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, oracle := sim.routing, newOracle(sim)
		if !e.hier {
			checkSameRoutes(t, sim, ref, sim.Nodes())
		} else {
			// Routers are no endpoints in hier mode, and a router's seeded
			// domain routes may break ties otherwise than the oracle's
			// rotated default: compare the hosts' tables, and walk every
			// host pair along a shortest path.
			hosts := leafHosts(sim)
			checkSameRoutes(t, sim, ref, hosts)
			checkShortestWalks(t, sim, oracle, hosts)
		}
		own := e.names
		if e.hier {
			own = e.domains
		}
		for v, ag := range sim.proto.agents {
			if ag == nil {
				continue
			}
			for w, dw := range sim.proto.agents {
				if dw == nil {
					continue
				}
				want := -1
				for r, rag := range sim.proto.agents {
					if rag != nil && own[r] == own[w] {
						if d := bfsDistance(oracle, e.names[v], e.names[r]); want < 0 || d < want {
							want = d
						}
					}
				}
				if got, _, ok := ag.Route(own[w]); !ok || got != want {
					t.Fatalf("%s's metric for %s is %d (known %v), BFS says %d", e.names[v], own[w], got, ok, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 25; iter++ {
		spec := randomRouteSpec(rng.Intn)
		t.Run(fmt.Sprintf("random-%d", iter), func(t *testing.T) { check(t, spec) })
	}
	for _, k := range []int{4, 6} {
		spec, err := FatTree(FatTreeParams{K: k})
		if err != nil {
			t.Fatal(err)
		}
		spec.Workloads = nil
		t.Run(fmt.Sprintf("fattree-k%d", k), func(t *testing.T) { check(t, spec) })
	}
}

// TestAggregateProbes pins the links.<glob> / hosts.<glob> probe families:
// the sampled sum must track the sum of the matched components' counters.
func TestAggregateProbes(t *testing.T) {
	spec, err := Lookup("dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = 2 * time.Second
	spec.Probes = []probe.Spec{
		{Target: "hosts.s*.sent_bytes", Name: "senders"},
		{Target: "hosts.*.received_bytes", Name: "all-recv"},
		{Target: "links.*-fwd.sent_packets", Name: "fwd-pkts"},
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(res.Series))
	}
	bySeries := map[string][]probe.Point{}
	for _, s := range res.Series {
		bySeries[s.Name] = s.Points
	}
	for name, pts := range bySeries {
		if len(pts) == 0 {
			t.Fatalf("series %q is empty", name)
		}
		last := 0.0
		for _, p := range pts {
			if p.V < last {
				t.Fatalf("series %q not monotonic: %v after %v", name, p.V, last)
			}
			last = p.V
		}
		if last == 0 {
			t.Errorf("series %q never left zero", name)
		}
	}
	// The final sample is taken at the duration boundary, before any event at
	// exactly that instant, so it is bounded by the end-of-run counters.
	var sentS, recvAll int64
	for _, h := range res.Hosts {
		recvAll += h.ReceivedBytes
		if h.Name[0] == 's' {
			sentS += h.SentBytes
		}
	}
	if last := bySeries["senders"][len(bySeries["senders"])-1].V; last > float64(sentS) {
		t.Errorf("senders final sample %v exceeds end-of-run total %d", last, sentS)
	}
	if last := bySeries["all-recv"][len(bySeries["all-recv"])-1].V; last > float64(recvAll) {
		t.Errorf("all-recv final sample %v exceeds end-of-run total %d", last, recvAll)
	}
}

// fuzzTopology builds a random connected exact-routing topology: nr routers
// on a ring with random chords, one host per router, stream workloads between
// random host pairs.
func fuzzTopology(rng *rand.Rand) Spec {
	nr := 5 + rng.Intn(6)
	link := netsim.LinkConfig{Bandwidth: 20 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 60}
	spec := Spec{
		Name:      "routefuzz",
		RouteSync: RouteSyncProtocol,
		Duration:  8 * time.Second,
		Seed:      rng.Int63n(1 << 30),
	}
	router := func(i int) string { return fmt.Sprintf("r%d", i) }
	host := func(i int) string { return fmt.Sprintf("h%d", i) }
	for i := 0; i < nr; i++ {
		spec.Routers = append(spec.Routers, router(i))
		spec.Links = append(spec.Links, LinkSpec{A: router(i), B: router((i + 1) % nr), LinkConfig: link})
	}
	ring := len(spec.Links)
	for c := rng.Intn(3); c > 0; c-- {
		a, b := rng.Intn(nr), rng.Intn(nr)
		if a != b && (a+1)%nr != b && (b+1)%nr != a {
			spec.Links = append(spec.Links, LinkSpec{A: router(a), B: router(b), LinkConfig: link})
		}
	}
	for i := 0; i < nr; i++ {
		spec.Links = append(spec.Links, LinkSpec{A: router(i), B: host(i), LinkConfig: link})
	}
	for w := 0; w < 3; w++ {
		a, b := rng.Intn(nr), rng.Intn(nr)
		if a == b {
			continue
		}
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindStream, From: host(a), To: host(b), CC: CCNative,
		})
	}
	if len(spec.Workloads) == 0 {
		spec.Workloads = []Workload{{Kind: KindStream, From: host(0), To: host(nr / 2), CC: CCNative}}
	}
	// Fault schedule: random message faults on a few ring links from 0.2s,
	// cleared at 1.2s; a ring link flaps down at 0.5s; the final topology
	// event at 1.5s (after the faults clear, so the convergence bound holds)
	// either restores it or downs a second link for good.
	flap := rng.Intn(ring)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		l := rng.Intn(ring)
		spec.Events = append(spec.Events,
			dynamics.Event{At: 200 * time.Millisecond, Kind: dynamics.SetRouteFaults, Link: l,
				DropRate: 0.2 + 0.5*rng.Float64(), DelayRate: 0.3 * rng.Float64(),
				Delay: 5 * time.Millisecond, DuplicateRate: 0.2 * rng.Float64()},
			dynamics.Event{At: 1200 * time.Millisecond, Kind: dynamics.SetRouteFaults, Link: l},
		)
	}
	spec.Events = append(spec.Events,
		dynamics.Event{At: 500 * time.Millisecond, Kind: dynamics.LinkDown, Link: flap})
	if rng.Intn(2) == 0 {
		spec.Events = append(spec.Events,
			dynamics.Event{At: 1500 * time.Millisecond, Kind: dynamics.LinkUp, Link: flap})
	} else {
		second := rng.Intn(ring)
		kind := dynamics.LinkDown
		if second == flap {
			kind = dynamics.LinkUp // re-flap the same link instead of a no-op
		}
		spec.Events = append(spec.Events,
			dynamics.Event{At: 1500 * time.Millisecond, Kind: kind, Link: second})
	}
	return spec
}

// TestRouteProtoFuzz drives random topology x flap schedule x control-fault
// schedule combinations through the protocol and holds every run to the
// convergence contract: after quiescence the tables route every pair that a
// fresh oracle of the same down-state can route (the end-of-run audit BFS is
// exactly that oracle), unreachable pairs die as drops rather than loops, and
// when nothing is partitioned the blackhole window has closed.
func TestRouteProtoFuzz(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		spec := fuzzTopology(rng)
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		rr := res.Routing
		if rr == nil {
			t.Fatalf("iter %d: no routing result", i)
		}
		if !rr.Converged {
			t.Fatalf("iter %d: deadline %v past duration %v", i, rr.ConvergenceDeadline, spec.Duration)
		}
		if rr.LoopPairs != 0 {
			t.Errorf("iter %d (seed %d): %d of %d audited pairs loop",
				i, spec.Seed, rr.LoopPairs, rr.AuditedPairs)
		}
		if rr.PendingAtEnd != 0 {
			t.Errorf("iter %d (seed %d): %d agents not quiescent", i, spec.Seed, rr.PendingAtEnd)
		}
		if rr.UnreachedPairs != 0 {
			t.Errorf("iter %d (seed %d): %d of %d audited pairs reachable but unrouted",
				i, spec.Seed, rr.UnreachedPairs, rr.AuditedPairs)
		}
		// Partitioned pairs keep dropping at the sender by design; only a run
		// whose end state is fully connected owes a closed blackhole window.
		if rr.PartitionedPairs == 0 && rr.PostConvergenceRouteDrops != 0 {
			t.Errorf("iter %d (seed %d): fully reachable end state but %d drops after the deadline",
				i, spec.Seed, rr.PostConvergenceRouteDrops)
		}
	}
}
