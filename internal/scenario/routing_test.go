package scenario

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// oracleRouter is a test-local reimplementation of the original map-based
// routing: full BFS from every source with first-mention tie-breaking and a
// parent-pointer walk-back for the first hop. The route engine must match it
// exactly — tables and changed-entry counts — whatever sequence of link
// flips happened in between.
type oracleRouter struct {
	nodes     []string
	linkFrom  map[string]map[string]*netsim.Link
	neighbors map[string][]string
	tables    map[string]map[string]*netsim.Link
}

func newOracle(sim *Sim) *oracleRouter {
	o := &oracleRouter{
		linkFrom:  make(map[string]map[string]*netsim.Link),
		neighbors: make(map[string][]string),
		tables:    make(map[string]map[string]*netsim.Link),
	}
	seen := make(map[string]bool)
	addNode := func(name string) {
		if !seen[name] {
			seen[name] = true
			o.nodes = append(o.nodes, name)
		}
	}
	add := func(from, to string, l *netsim.Link) {
		if o.linkFrom[from] == nil {
			o.linkFrom[from] = make(map[string]*netsim.Link)
		}
		o.linkFrom[from][to] = l
		o.neighbors[from] = append(o.neighbors[from], to)
	}
	for i, ls := range sim.Spec.Links {
		addNode(ls.A)
		addNode(ls.B)
		d := sim.Duplex(i)
		add(ls.A, ls.B, d.Forward)
		add(ls.B, ls.A, d.Reverse)
	}
	return o
}

func (o *oracleRouter) routesFrom(src string) map[string]*netsim.Link {
	parent := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range o.neighbors[u] {
			if o.linkFrom[u][v].IsDown() {
				continue
			}
			if _, ok := parent[v]; !ok {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	table := make(map[string]*netsim.Link)
	for _, dst := range o.nodes {
		if dst == src {
			continue
		}
		if _, ok := parent[dst]; !ok {
			continue
		}
		hop := dst
		for parent[hop] != src {
			hop = parent[hop]
		}
		table[dst] = o.linkFrom[src][hop]
	}
	return table
}

// recompute rebuilds every table from scratch and returns the total changed
// count under InstallRoutes semantics (added, removed or repointed entries).
func (o *oracleRouter) recompute() int {
	changed := 0
	for _, src := range o.nodes {
		table := o.routesFrom(src)
		old := o.tables[src]
		for dst, l := range table {
			if prev, ok := old[dst]; !ok || prev != l {
				changed++
			}
		}
		for dst := range old {
			if _, ok := table[dst]; !ok {
				changed++
			}
		}
		o.tables[src] = table
	}
	return changed
}

// checkAgainstOracle compares every host's RouteTo against the oracle's
// current tables for every destination.
func checkAgainstOracle(t *testing.T, sim *Sim, o *oracleRouter) {
	t.Helper()
	for _, src := range o.nodes {
		h := sim.Host(src)
		for _, dst := range o.nodes {
			if dst == src {
				continue
			}
			if got, want := h.RouteTo(dst), o.tables[src][dst]; got != want {
				t.Fatalf("route %s->%s: engine %v, oracle %v", src, dst, linkName(got), linkName(want))
			}
		}
	}
}

func linkName(l *netsim.Link) string {
	if l == nil {
		return "<none>"
	}
	return l.Config().Name
}

// randomRouteSpec builds a random connected exact-routing topology of 5 to 24
// nodes, all routers, from intn's draws.
func randomRouteSpec(intn func(int) int) Spec {
	link := netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 20}
	n := 5 + intn(20)
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	spec := Spec{Name: "route-fuzz", Duration: time.Second}
	type pair struct{ a, b int }
	used := make(map[pair]bool)
	addLink := func(a, b int) {
		if a == b || used[pair{a, b}] || used[pair{b, a}] {
			return
		}
		used[pair{a, b}] = true
		spec.Links = append(spec.Links, LinkSpec{A: name(a), B: name(b), LinkConfig: link})
	}
	// A random spanning tree keeps the graph connected; extra random
	// edges add the redundancy that makes rerouting interesting.
	for i := 1; i < n; i++ {
		addLink(intn(i), i)
	}
	for j := intn(n + 1); j > 0; j-- {
		addLink(intn(n), intn(n))
	}
	for i := 0; i < n; i++ {
		spec.Routers = append(spec.Routers, name(i))
	}
	return spec
}

// checkFlipsAgainstOracle builds a random topology (randomRouteSpec), then
// applies steps random directional link flips; after the build and after
// every flip, the engine's tables AND changed-entry count must equal the
// from-scratch full-BFS oracle's.
func checkFlipsAgainstOracle(t *testing.T, intn func(int) int, steps int) {
	t.Helper()
	spec := randomRouteSpec(intn)
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(sim)
	oracle.recompute()
	checkAgainstOracle(t, sim, oracle)

	for step := 0; step < steps; step++ {
		d := sim.Duplex(intn(len(spec.Links)))
		down := intn(2) == 0
		switch intn(3) {
		case 0:
			d.Forward.SetDown(down)
		case 1:
			d.Reverse.SetDown(down)
		default:
			d.Forward.SetDown(down)
			d.Reverse.SetDown(down)
		}
		got := sim.recomputeRoutes()
		want := oracle.recompute()
		if got != want {
			t.Fatalf("step %d: engine changed %d entries, oracle %d", step, got, want)
		}
		checkAgainstOracle(t, sim, oracle)
	}
}

// TestExactRecomputeMatchesOracleAcrossFlips holds exact-mode recomputation
// to the full-BFS oracle on 25 random topologies of 40 flips each.
func TestExactRecomputeMatchesOracleAcrossFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		t.Run(fmt.Sprint(iter), func(t *testing.T) { checkFlipsAgainstOracle(t, rng.Intn, 40) })
	}
}

// byteDraws turns a fuzz input into a generator's draws: each takes the next
// byte modulo n, and an exhausted input draws 0.
type byteDraws []byte

func (b *byteDraws) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// FuzzRouteRecompute is the same oracle check over fuzzer-chosen topologies
// and flip sequences: the input's bytes are the generator's draws, and it
// flips until they run out (at most 64 times).
func FuzzRouteRecompute(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		draws := byteDraws(data)
		checkFlipsAgainstOracle(t, draws.intn, min(len(data)/3, 64))
	})
}

// TestExactRoutingMatchesOracleOnCannedScenarios pins byte-identity of the
// interned route engine against the original map-based BFS on every
// registered exact-routing scenario, serial and sharded.
func TestExactRoutingMatchesOracleOnCannedScenarios(t *testing.T) {
	for _, name := range List() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Routing == RoutingHier {
			continue
		}
		for _, shards := range []int{0, 4} {
			spec.Shards = shards
			sim, err := Build(spec)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, shards, err)
			}
			oracle := newOracle(sim)
			oracle.recompute()
			checkAgainstOracle(t, sim, oracle)
		}
	}
}

// nextHopNode resolves which node a link leads to, via the engine's interned
// adjacency.
func nextHopNode(t *testing.T, sim *Sim, l *netsim.Link) string {
	t.Helper()
	e := sim.routing
	for k, al := range e.adjLink {
		if al == l {
			return e.names[e.adjTo[k]]
		}
	}
	t.Fatalf("link %s not in adjacency", linkName(l))
	return ""
}

// walkRoute follows RouteTo hop by hop from src to dst, failing on a down
// link, a missing route, or a loop (more hops than nodes). It returns the
// hop count.
func walkRoute(t *testing.T, sim *Sim, src, dst string) int {
	t.Helper()
	cur := src
	for hops := 0; hops <= len(sim.routing.names); hops++ {
		if cur == dst {
			return hops
		}
		l := sim.Host(cur).RouteTo(dst)
		if l == nil {
			t.Fatalf("walk %s->%s: no route at %s after %d hops", src, dst, cur, hops)
		}
		if l.IsDown() {
			t.Fatalf("walk %s->%s: down link at %s after %d hops", src, dst, cur, hops)
		}
		cur = nextHopNode(t, sim, l)
	}
	t.Fatalf("walk %s->%s: routing loop", src, dst)
	return 0
}

// bfsDistance is the hop-count oracle for hier delivery checks.
func bfsDistance(o *oracleRouter, src, dst string) int {
	dist := map[string]int{src: 0}
	queue := []string{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			return dist[u]
		}
		for _, v := range o.neighbors[u] {
			if o.linkFrom[u][v].IsDown() {
				continue
			}
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return -1
}

// checkShortestWalks walks every pair of hosts through the installed tables
// and fails unless each walk takes the BFS-shortest hop count.
func checkShortestWalks(t *testing.T, sim *Sim, oracle *oracleRouter, hosts []string) {
	t.Helper()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			if hops, want := walkRoute(t, sim, src, dst), bfsDistance(oracle, src, dst); hops != want {
				t.Fatalf("%s->%s took %d hops, shortest is %d", src, dst, hops, want)
			}
		}
	}
}

// leafHosts returns the spec's non-router nodes in first-mention order.
func leafHosts(sim *Sim) []string {
	var hosts []string
	for _, name := range sim.Nodes() {
		if !sim.Host(name).Forwarding() {
			hosts = append(hosts, name)
		}
	}
	return hosts
}

// TestHierRoutingDeliversShortestPaths checks hierarchical routing end to
// end on both canned hierarchical topologies: every host pair's RouteTo walk
// reaches the destination in exactly the BFS-shortest hop count — no loops,
// no stretch — even though no node holds more than its children and a
// default route.
func TestHierRoutingDeliversShortestPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() (Spec, error)
	}{
		{"fattree-k4", func() (Spec, error) { return FatTree(FatTreeParams{K: 4}) }},
		{"fattree-k6-thin", func() (Spec, error) { return FatTree(FatTreeParams{K: 6, HostsPerEdge: 1}) }},
		{"isp-small", func() (Spec, error) { return ISP(ISPParams{Aggs: 3, AccessPerAgg: 2, HostsPerAccess: 2, Servers: 2}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := tc.spec()
			if err != nil {
				t.Fatal(err)
			}
			spec.Workloads = nil
			sim, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newOracle(sim)
			hosts := leafHosts(sim)
			if len(hosts) < 4 {
				t.Fatalf("only %d hosts", len(hosts))
			}
			checkShortestWalks(t, sim, oracle, hosts)
		})
	}
}

// checkSameRoutes compares the (src, dst) next hop of every pair of nodes
// between two builds of the same spec by link name (the builds hold distinct
// Link pointers).
func checkSameRoutes(t *testing.T, a, b *Sim, nodes []string) {
	t.Helper()
	for _, src := range nodes {
		ha, hb := a.Host(src), b.Host(src)
		for _, dst := range nodes {
			if dst == src {
				continue
			}
			if got, want := linkName(ha.RouteTo(dst)), linkName(hb.RouteTo(dst)); got != want {
				t.Fatalf("route %s->%s diverged: %s vs %s", src, dst, got, want)
			}
		}
	}
}

// TestHierIncrementalFlapsMatchFreshBuild drives a random sequence of
// directional link flips through the hierarchical incremental path and,
// after every batch, compares the full routing state against a fresh build
// that receives the same final down-state in one step. Any staleness in the
// per-node incremental rebuild (mirror drift, missed endpoints) diverges.
func TestHierIncrementalFlapsMatchFreshBuild(t *testing.T) {
	spec, err := FatTree(FatTreeParams{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec.Workloads = nil
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	down := make(map[int]bool) // directional state: 2*link+0 fwd, 2*link+1 rev
	for round := 0; round < 12; round++ {
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			li := rng.Intn(len(spec.Links))
			rev := rng.Intn(2)
			d := sim.Duplex(li)
			l := d.Forward
			if rev == 1 {
				l = d.Reverse
			}
			state := !down[2*li+rev]
			down[2*li+rev] = state
			l.SetDown(state)
		}
		if sim.recomputeRoutes() == 0 && round == 0 {
			t.Fatal("first flip batch changed no routes")
		}
		fresh, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		for key, state := range down {
			d := fresh.Duplex(key / 2)
			if key%2 == 0 {
				d.Forward.SetDown(state)
			} else {
				d.Reverse.SetDown(state)
			}
		}
		fresh.recomputeRoutes()
		checkSameRoutes(t, sim, fresh, sim.Nodes())
	}
}

// TestHierEdgeUplinkFailureReroutes pins the local-repair story: when an
// edge switch loses one aggregation uplink, hosts beneath it still reach
// every other host (the default route rotates to a surviving uplink), and
// restoring the link restores the original paths everywhere.
func TestHierEdgeUplinkFailureReroutes(t *testing.T) {
	spec, err := FatTree(FatTreeParams{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec.Workloads = nil
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	hosts := leafHosts(sim)
	baseline := make(map[string]int)
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				baseline[src+">"+dst] = walkRoute(t, sim, src, dst)
			}
		}
	}
	// Fail the uplink that e0.p0's default actually uses, so the reroute is
	// exercised for real.
	def := sim.Host("e0.p0").RouteTo("h0.e0.p1")
	li := -1
	for i, ls := range spec.Links {
		d := sim.Duplex(i)
		if d.Forward == def || d.Reverse == def {
			if ls.A == "e0.p0" || ls.B == "e0.p0" {
				li = i
			}
		}
	}
	if li < 0 {
		t.Fatalf("could not find e0.p0's default uplink %s", linkName(def))
	}
	sim.Duplex(li).Forward.SetDown(true)
	sim.Duplex(li).Reverse.SetDown(true)
	if changed := sim.recomputeRoutes(); changed == 0 {
		t.Fatal("uplink failure changed no routes")
	}
	// Every host under the degraded edge switch still reaches every host.
	for _, src := range []string{"h0.e0.p0", "h1.e0.p0"} {
		for _, dst := range hosts {
			if src != dst {
				walkRoute(t, sim, src, dst)
			}
		}
	}
	sim.Duplex(li).Forward.SetDown(false)
	sim.Duplex(li).Reverse.SetDown(false)
	if changed := sim.recomputeRoutes(); changed == 0 {
		t.Fatal("uplink recovery changed no routes")
	}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src != dst {
				if hops := walkRoute(t, sim, src, dst); hops != baseline[src+">"+dst] {
					t.Fatalf("%s->%s: %d hops after recovery, baseline %d", src, dst, hops, baseline[src+">"+dst])
				}
			}
		}
	}
}

// TestHierSpecValidation covers the declarative guard rails of hierarchical
// routing: mode typos, missing or non-router roots, stray hier fields on
// exact specs, and non-hierarchical topologies.
func TestHierSpecValidation(t *testing.T) {
	link := netsim.LinkConfig{QueuePackets: 10}
	base := func() Spec {
		return Spec{
			Name: "hier-bad",
			Links: []LinkSpec{
				{A: "r", B: "a", LinkConfig: link},
				{A: "r", B: "b", LinkConfig: link},
			},
			Routers: []string{"r"},
		}
	}
	s := base()
	s.Routing = "weird"
	s.fillDefaults()
	if err := s.Validate(); err == nil {
		t.Fatal("unknown routing mode accepted")
	}
	s = base()
	s.Routing = RoutingHier
	s.fillDefaults()
	if err := s.Validate(); err == nil {
		t.Fatal("hier routing without roots accepted")
	}
	s = base()
	s.Routing = RoutingHier
	s.HierRoots = []string{"a"}
	s.fillDefaults()
	if err := s.Validate(); err == nil {
		t.Fatal("non-router hier root accepted")
	}
	s = base()
	s.HierRoots = []string{"r"}
	s.fillDefaults()
	if err := s.Validate(); err == nil {
		t.Fatal("hier roots on an exact-routing spec accepted")
	}
	// A triangle has a same-level link; Build must reject it for hier.
	s = base()
	s.Links = append(s.Links, LinkSpec{A: "a", B: "b", LinkConfig: link})
	s.Routing = RoutingHier
	s.HierRoots = []string{"r"}
	s.Routers = []string{"r", "a", "b"}
	if _, err := Build(s); err == nil {
		t.Fatal("same-level link accepted by hier routing")
	}
}

// TestParameterisedLookup covers the registry's parameter plumbing: defaults,
// explicit values, unknown names/values, and non-parameterised scenarios.
func TestParameterisedLookup(t *testing.T) {
	spec, err := LookupParams("fattree", map[string]float64{"k": 8, "hosts": 2})
	if err != nil {
		t.Fatal(err)
	}
	hosts := 0
	nodes := make(map[string]bool)
	for _, ls := range spec.Links {
		nodes[ls.A] = true
		nodes[ls.B] = true
	}
	routers := make(map[string]bool)
	for _, r := range spec.Routers {
		routers[r] = true
	}
	for n := range nodes {
		if !routers[n] {
			hosts++
		}
	}
	if want := 8 * 4 * 2; hosts != want { // k pods × k/2 edges × 2 hosts
		t.Fatalf("k=8 hosts=2 fat-tree has %d hosts, want %d", hosts, want)
	}
	if _, err := LookupParams("fattree", map[string]float64{"k": 3}); err == nil {
		t.Fatal("odd k accepted")
	}
	if _, err := LookupParams("fattree", map[string]float64{"k": 4.5}); err == nil {
		t.Fatal("fractional k accepted")
	}
	if _, err := LookupParams("fattree", map[string]float64{"pods": 4}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := LookupParams("dumbbell", map[string]float64{"k": 4}); err == nil {
		t.Fatal("parameters on a non-parameterised scenario accepted")
	}
	if _, err := LookupParams("dumbbell", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("isp"); err != nil {
		t.Fatal(err)
	}
}

// A lookup with several bad parameters always reports the same one: unknown
// names first (the smallest), then values in the builder's table order.
func TestParameterErrorsAreDeterministic(t *testing.T) {
	for _, tc := range []struct {
		params map[string]float64
		says   string
	}{
		{map[string]float64{"k": 4.5, "hosts": 1.5, "pods": 3, "links": 2}, `scenario "routeflap": unknown parameter "links" (takes k, hosts, `},
		{map[string]float64{"seed": 0.5, "hosts": 1.5, "k": 4.5}, `scenario "routeflap": parameter "k" must be an integer, got 4.5`},
	} {
		for i := 0; i < 60; i++ {
			_, err := LookupParams("routeflap", tc.params)
			if err == nil || !strings.HasPrefix(err.Error(), tc.says) {
				t.Fatalf("lookup %d of %v: error %v, want %s…", i, tc.params, err, tc.says)
			}
		}
	}
}

// The p2p knobs land in the sweep grammar's units, and p2p-native is the same
// scenario without the CM.
func TestPointToPointParams(t *testing.T) {
	params := map[string]float64{"bandwidth": 2e6, "delay": 0.03, "loss": 0.02, "queue": 40,
		"bytes": 500000, "flows": 8, "duration": 3600, "seed": 7}
	for name, cc := range map[string]string{"p2p": CCCM, "p2p-native": CCNative} {
		spec, err := LookupParams(name, params)
		if err != nil {
			t.Fatal(err)
		}
		want := netsim.LinkConfig{Bandwidth: 2 * netsim.Mbps, Delay: 30 * time.Millisecond, LossRate: 0.02, QueuePackets: 40}
		if len(spec.Links) != 1 || spec.Links[0].LinkConfig != want {
			t.Errorf("%s: links %+v, want one with %+v", name, spec.Links, want)
		}
		w := Workload{Kind: KindBulk, From: "sender", To: "receiver", Flows: 8, Bytes: 500000, CC: cc}
		if len(spec.Workloads) != 1 || spec.Workloads[0] != w {
			t.Errorf("%s: workloads %+v, want %+v", name, spec.Workloads, w)
		}
		if spec.Name != name || spec.Duration != time.Hour || spec.Seed != 7 {
			t.Errorf("%s: name %q, duration %v, seed %d", name, spec.Name, spec.Duration, spec.Seed)
		}
	}
}
