package scenario

import (
	"fmt"
	"time"

	"repro/internal/dynamics"
	"repro/internal/probe"
)

// RouteFlapParams parameterises the route-flap convergence scenario: a k-ary
// fat-tree running the distance-vector control plane, with one core uplink
// flapping mid-run while the surviving core uplinks of the same pod drop,
// delay and duplicate routing messages. The protocol must re-converge after
// the final topology event despite the control-plane faults; the faults are
// cleared before the last flap so the convergence bound (see
// docs/ROUTING.md) applies and the faults invariants can enforce a closed
// blackhole window.
type RouteFlapParams struct {
	// K is the fat-tree arity (even, default 4).
	K int
	// HostsPerEdge is the host count under each edge switch (default K/2).
	HostsPerEdge int
	// DropRate is the probability of losing one routing message on each
	// faulted core uplink (default 0.3).
	DropRate float64
	// DelayRate and Delay add latency to routing messages (defaults 0.2 and
	// 10 ms).
	DelayRate float64
	Delay     time.Duration
	// DuplicateRate delivers a routing message twice (default 0.1).
	DuplicateRate float64
	// DownAt and UpAt flap aggregation switch a0.p0's core uplinks (defaults
	// 1 s and 3 s). FaultAt and FaultClear bound the control-fault window
	// (defaults 500 ms and 2.5 s); FaultClear must precede UpAt or the
	// convergence bound does not hold.
	DownAt, UpAt        time.Duration
	FaultAt, FaultClear time.Duration
	Duration            time.Duration
	Seed                int64
}

func (p *RouteFlapParams) fillDefaults() error {
	if p.K == 0 {
		p.K = 4
	}
	if p.DropRate == 0 {
		p.DropRate = 0.3
	}
	if p.DelayRate == 0 {
		p.DelayRate = 0.2
	}
	if p.Delay == 0 {
		p.Delay = 10 * time.Millisecond
	}
	if p.DuplicateRate == 0 {
		p.DuplicateRate = 0.1
	}
	if p.DownAt == 0 {
		p.DownAt = time.Second
	}
	if p.UpAt == 0 {
		p.UpAt = 3 * time.Second
	}
	if p.FaultAt == 0 {
		p.FaultAt = 500 * time.Millisecond
	}
	if p.FaultClear == 0 {
		p.FaultClear = 2500 * time.Millisecond
	}
	if p.Duration == 0 {
		p.Duration = 10 * time.Second
	}
	if p.DownAt <= 0 || p.UpAt <= p.DownAt {
		return fmt.Errorf("route flap needs 0 < down-at (%v) < up-at (%v)", p.DownAt, p.UpAt)
	}
	if p.FaultClear >= p.UpAt {
		return fmt.Errorf("route flap needs fault-clear (%v) before the final flap at %v", p.FaultClear, p.UpAt)
	}
	return nil
}

// RouteFlap builds the fat-tree route-flap scenario. Every core uplink of
// aggregation switch a0.p0 goes down at once — the "agg switch lost its core
// card" failure. A single-uplink failure is repaired instantly by local state
// (the default rotates, the core falls back to its seeded alternate), but
// severing a0.p0 entirely forces the distance-vector exchange to do real
// work: the stranded switch must learn to reach remote pods *down* through
// its edges and back up through a1.p0, the cores must abandon their direct
// pod-0 routes, and until the waves settle, cross-pod traffic bounces
// (TTL drops) or dies at the cut switch (forward-miss) — the blackhole
// window. The control-plane faults land on a1.p0's surviving uplinks, the
// very links those waves must cross. Aggregate probes track the pod-wide
// blackhole symptoms summed over every host, so a sweep CSV shows the window
// opening and closing.
func RouteFlap(p RouteFlapParams) (Spec, error) {
	if err := p.fillDefaults(); err != nil {
		return Spec{}, err
	}
	spec, err := FatTree(FatTreeParams{
		K: p.K, HostsPerEdge: p.HostsPerEdge,
		Duration: p.Duration, Seed: p.Seed,
	})
	if err != nil {
		return Spec{}, err
	}
	half := p.K / 2
	spec.Name = "routeflap"
	spec.Description = fmt.Sprintf(
		"k=%d fat-tree under the DV control plane: core uplink flaps %v-%v, %.0f%% routing-message loss on pod 0's surviving uplinks",
		p.K, p.DownAt, p.UpAt, p.DropRate*100)
	spec.RouteSync = RouteSyncProtocol

	// The fat-tree builder emits pod 0's core uplinks first: links
	// [0, half) belong to a0.p0, links [half, 2*half) to a1.p0. The first
	// group flaps; the second carries the fault injection.
	for l := 0; l < half; l++ {
		spec.Events = append(spec.Events,
			dynamics.Event{At: p.DownAt, Kind: dynamics.LinkDown, Link: l},
			dynamics.Event{At: p.UpAt, Kind: dynamics.LinkUp, Link: l},
		)
	}
	for l := half; l < 2*half; l++ {
		spec.Events = append(spec.Events,
			dynamics.Event{At: p.FaultAt, Kind: dynamics.SetRouteFaults, Link: l,
				DropRate: p.DropRate, DelayRate: p.DelayRate, Delay: p.Delay,
				DuplicateRate: p.DuplicateRate},
			dynamics.Event{At: p.FaultClear, Kind: dynamics.SetRouteFaults, Link: l},
		)
	}
	// The blackhole drops land on the fabric switches (the cut switch
	// forward-misses, loops die by TTL at the cores), not on the leaf hosts,
	// so the aggregate probes span every node: the series rise while the
	// window is open and go flat once the protocol heals the tables.
	spec.Probes = append(spec.Probes,
		probe.Spec{Target: "hosts.*.route_miss_drops", Name: "route_miss"},
		probe.Spec{Target: "hosts.*.ttl_expired_drops", Name: "ttl_drops"},
		probe.Spec{Target: "hosts.*.no_route_drops", Name: "no_route"},
	)
	return spec, nil
}

// routeFlapFromParams adapts the registry's name=value parameters onto
// RouteFlapParams.
func routeFlapFromParams(params map[string]float64) (Spec, error) {
	var p RouteFlapParams
	err := decodeParams(params,
		integer("k", &p.K), integer("hosts", &p.HostsPerEdge),
		number("droprate", &p.DropRate), number("delayrate", &p.DelayRate),
		seconds("delay", &p.Delay), number("duprate", &p.DuplicateRate),
		seconds("downat", &p.DownAt), seconds("upat", &p.UpAt),
		seconds("faultat", &p.FaultAt), seconds("faultclear", &p.FaultClear),
		seconds("duration", &p.Duration), integer("seed", &p.Seed))
	if err != nil {
		return Spec{}, err
	}
	return RouteFlap(p)
}
