package scenario

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// This file holds the internet-scale hierarchical builders: the k-ary
// fat-tree datacenter fabric and the access/aggregation/core ISP tree. Both
// use RoutingHier, so per-node route tables stay O(children) and a 100k-host
// spec builds without the all-pairs BFS that exact routing needs.
//
// Node names encode the hierarchy as dotted suffixes, which is what the
// hierarchical router matches on: a fat-tree host "h0.e1.p2" lives under
// edge switch "e1.p2" in pod "p2", and an ISP host "h0.x1.a2" lives under
// access router "x1.a2" behind aggregation router "a2".

// FatTreeParams parameterises the k-ary fat-tree fabric.
type FatTreeParams struct {
	// K is the fat-tree arity (even, default 4): K pods of K/2 edge and K/2
	// aggregation switches, (K/2)² core switches, and HostsPerEdge hosts per
	// edge switch.
	K int
	// HostsPerEdge is the host count under each edge switch (default K/2,
	// the canonical fully-provisioned fat-tree).
	HostsPerEdge int
	// CC selects the congestion controller of all workloads (default CM).
	CC       string
	Duration time.Duration
	Seed     int64
}

func (p *FatTreeParams) fillDefaults() error {
	if p.K == 0 {
		p.K = 4
	}
	if p.K < 2 || p.K%2 != 0 {
		return fmt.Errorf("fat-tree arity k must be even and >= 2, got %d", p.K)
	}
	if p.HostsPerEdge == 0 {
		p.HostsPerEdge = p.K / 2
	}
	if p.HostsPerEdge < 1 {
		return fmt.Errorf("fat-tree hosts-per-edge must be >= 1, got %d", p.HostsPerEdge)
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	if p.Duration == 0 {
		p.Duration = 10 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// FatTree builds the k-ary fat-tree: cores "c<i>" at the top, per pod p the
// aggregation switches "a<j>.p<p>" and edge switches "e<j>.p<p>", and hosts
// "h<m>.e<j>.p<p>" at the leaves. Aggregation switch j of every pod uplinks
// to cores [j·k/2, (j+1)·k/2), so each core reaches every pod through
// exactly one aggregation switch and pod-domain routing is unambiguous.
// Routing is hierarchical: aggregation switches cover their pod's name
// suffix (Domains["a<j>.p<p>"] = "p<p>"), edge switches cover their own
// name, and hosts hold nothing but a default route.
//
// The workload exercises every layer: each pod's first host streams to the
// same host one pod over (crossing the core), and, when the pod has a second
// edge switch, its first host sends a staggered bulk transfer across the
// aggregation layer to the pod's first host.
func FatTree(p FatTreeParams) (Spec, error) {
	if err := p.fillDefaults(); err != nil {
		return Spec{}, err
	}
	k := p.K
	half := k / 2
	hosts := k * half * p.HostsPerEdge
	spec := Spec{
		Name: "fattree",
		Description: fmt.Sprintf("k=%d fat-tree (%d hosts, %d switches): hierarchical routing, cross-pod and cross-edge traffic",
			k, hosts, k*k+half*half),
		Routing:  RoutingHier,
		Domains:  make(map[string]string, k*half),
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	core := func(i int) string { return fmt.Sprintf("c%d", i) }
	agg := func(j, pod int) string { return fmt.Sprintf("a%d.p%d", j, pod) }
	edge := func(j, pod int) string { return fmt.Sprintf("e%d.p%d", j, pod) }
	host := func(m, j, pod int) string { return fmt.Sprintf("h%d.e%d.p%d", m, j, pod) }
	hostLink := netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: 20 * time.Microsecond, QueuePackets: 100}
	fabricLink := netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: 50 * time.Microsecond, QueuePackets: 120}

	for i := 0; i < half*half; i++ {
		spec.Routers = append(spec.Routers, core(i))
		spec.HierRoots = append(spec.HierRoots, core(i))
	}
	for pod := 0; pod < k; pod++ {
		for j := 0; j < half; j++ {
			a := agg(j, pod)
			spec.Routers = append(spec.Routers, a)
			spec.Domains[a] = fmt.Sprintf("p%d", pod)
			for c := 0; c < half; c++ {
				spec.Links = append(spec.Links, LinkSpec{A: core(j*half + c), B: a, LinkConfig: fabricLink})
			}
		}
		for j := 0; j < half; j++ {
			e := edge(j, pod)
			spec.Routers = append(spec.Routers, e)
			for a := 0; a < half; a++ {
				spec.Links = append(spec.Links, LinkSpec{A: agg(a, pod), B: e, LinkConfig: fabricLink})
			}
			for m := 0; m < p.HostsPerEdge; m++ {
				spec.Links = append(spec.Links, LinkSpec{A: e, B: host(m, j, pod), LinkConfig: hostLink})
			}
		}
	}
	for pod := 0; pod < k; pod++ {
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindStream, From: host(0, 0, pod), To: host(0, 0, (pod+1)%k), CC: p.CC,
		})
		if half > 1 {
			spec.Workloads = append(spec.Workloads, Workload{
				Kind: KindBulk, From: host(0, 1, pod), To: host(0, 0, pod),
				Bytes: 1 << 20, CC: p.CC,
				Start: time.Duration(pod+1) * 50 * time.Millisecond,
			})
		}
	}
	return spec, nil
}

// ISPParams parameterises the access/aggregation/core ISP tree.
type ISPParams struct {
	// Aggs is the number of aggregation routers under the core (default 4).
	Aggs int
	// AccessPerAgg is the number of access routers per aggregation router
	// (default 4).
	AccessPerAgg int
	// HostsPerAccess is the number of subscriber hosts per access router
	// (default 8). Aggs=16, AccessPerAgg=25, HostsPerAccess=250 is the
	// 100k-host configuration.
	HostsPerAccess int
	// Servers is the number of server hosts attached at the core (default 2).
	Servers int
	// Clients is the number of subscriber hosts that actually run a web-mix
	// workload toward the servers (default 16, capped at the host count);
	// the rest are passive topology.
	Clients int
	// RatePerSec is each client's mean request arrival rate (default 10).
	RatePerSec float64
	// Requests is each client's total request count (default 32).
	Requests int
	// MeanBytes is the mean response size (default 12 KB).
	MeanBytes int
	Duration  time.Duration
	Seed      int64
}

func (p *ISPParams) fillDefaults() error {
	if p.Aggs == 0 {
		p.Aggs = 4
	}
	if p.AccessPerAgg == 0 {
		p.AccessPerAgg = 4
	}
	if p.HostsPerAccess == 0 {
		p.HostsPerAccess = 8
	}
	if p.Servers == 0 {
		p.Servers = 2
	}
	if p.Aggs < 1 || p.AccessPerAgg < 1 || p.HostsPerAccess < 1 || p.Servers < 1 {
		return fmt.Errorf("isp tree needs positive aggs/access/hosts/servers, got %d/%d/%d/%d",
			p.Aggs, p.AccessPerAgg, p.HostsPerAccess, p.Servers)
	}
	if p.Clients == 0 {
		p.Clients = 16
	}
	if p.Clients < 0 {
		return fmt.Errorf("isp tree needs a non-negative client count, got %d", p.Clients)
	}
	if total := p.Aggs * p.AccessPerAgg * p.HostsPerAccess; p.Clients > total {
		p.Clients = total
	}
	if p.RatePerSec == 0 {
		p.RatePerSec = 10
	}
	if p.Requests <= 0 {
		p.Requests = 32
	}
	if p.MeanBytes <= 0 {
		p.MeanBytes = 12 << 10
	}
	if p.Duration == 0 {
		p.Duration = 10 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return nil
}

// ISP builds the access tree: one core router ("core", the hierarchy root),
// aggregation routers "a<i>", access routers "x<j>.a<i>", subscriber hosts
// "h<m>.x<j>.a<i>", and servers "srv<s>" attached directly at the core. The
// dotted names make every router cover its own suffix, so no Domains map is
// needed: the core routes "h0.x1.a2" by its "a2" suffix, "a2" routes it by
// "x1.a2", and the access router holds the exact host entry. Clients spread
// across the access tree run web-mix request workloads against the servers —
// the CM's ensemble story at access-network scale.
func ISP(p ISPParams) (Spec, error) {
	if err := p.fillDefaults(); err != nil {
		return Spec{}, err
	}
	hosts := p.Aggs * p.AccessPerAgg * p.HostsPerAccess
	spec := Spec{
		Name: "isp",
		Description: fmt.Sprintf("ISP access tree (%d hosts, %d routers, %d servers): hierarchical routing, web-mix clients",
			hosts, 1+p.Aggs+p.Aggs*p.AccessPerAgg, p.Servers),
		Routing:   RoutingHier,
		HierRoots: []string{"core"},
		Duration:  p.Duration,
		Seed:      p.Seed,
	}
	aggName := func(i int) string { return fmt.Sprintf("a%d", i) }
	accName := func(j, i int) string { return fmt.Sprintf("x%d.a%d", j, i) }
	hostName := func(m, j, i int) string { return fmt.Sprintf("h%d.x%d.a%d", m, j, i) }
	backbone := netsim.LinkConfig{Bandwidth: 1000 * netsim.Mbps, Delay: 2 * time.Millisecond, QueuePackets: 200}
	feeder := netsim.LinkConfig{Bandwidth: 200 * netsim.Mbps, Delay: 1 * time.Millisecond, QueuePackets: 150}
	lastMile := netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: 5 * time.Millisecond, QueuePackets: 60}

	spec.Routers = append(spec.Routers, "core")
	for s := 0; s < p.Servers; s++ {
		spec.Links = append(spec.Links, LinkSpec{A: "core", B: fmt.Sprintf("srv%d", s), LinkConfig: backbone})
	}
	for i := 0; i < p.Aggs; i++ {
		spec.Routers = append(spec.Routers, aggName(i))
		spec.Links = append(spec.Links, LinkSpec{A: "core", B: aggName(i), LinkConfig: backbone})
		for j := 0; j < p.AccessPerAgg; j++ {
			spec.Routers = append(spec.Routers, accName(j, i))
			spec.Links = append(spec.Links, LinkSpec{A: aggName(i), B: accName(j, i), LinkConfig: feeder})
			for m := 0; m < p.HostsPerAccess; m++ {
				spec.Links = append(spec.Links, LinkSpec{A: accName(j, i), B: hostName(m, j, i), LinkConfig: lastMile})
			}
		}
	}
	// Clients stripe across aggregation routers first, then access routers,
	// then host slots, so even a handful of clients exercises distinct paths.
	for c := 0; c < p.Clients; c++ {
		i := c % p.Aggs
		j := (c / p.Aggs) % p.AccessPerAgg
		m := c / (p.Aggs * p.AccessPerAgg)
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindWebMix, From: hostName(m, j, i), To: fmt.Sprintf("srv%d", c%p.Servers),
			Flows: p.Requests, Rate: p.RatePerSec, Bytes: p.MeanBytes, CC: CCCM,
			Start: time.Duration(c) * 20 * time.Millisecond,
		})
	}
	return spec, nil
}

// fatTreeFromParams adapts the registry's name=value parameters onto
// FatTreeParams.
func fatTreeFromParams(params map[string]float64) (Spec, error) {
	var p FatTreeParams
	err := decodeParams(params,
		integer("k", &p.K), integer("hosts", &p.HostsPerEdge),
		seconds("duration", &p.Duration), integer("seed", &p.Seed))
	if err != nil {
		return Spec{}, err
	}
	return FatTree(p)
}

// ispFromParams adapts the registry's name=value parameters onto ISPParams.
func ispFromParams(params map[string]float64) (Spec, error) {
	var p ISPParams
	err := decodeParams(params,
		integer("aggs", &p.Aggs), integer("access", &p.AccessPerAgg),
		integer("hosts", &p.HostsPerAccess), integer("servers", &p.Servers),
		integer("clients", &p.Clients), number("rate", &p.RatePerSec),
		integer("requests", &p.Requests), integer("bytes", &p.MeanBytes),
		seconds("duration", &p.Duration), integer("seed", &p.Seed))
	if err != nil {
		return Spec{}, err
	}
	return ISP(p)
}
