package routeproto

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

// rig is a hand-wired topology of protocol agents for white-box tests:
// exact-mode installation straight into the host tables.
type rig struct {
	sched  *simtime.Scheduler
	net    *node.Network
	agents map[string]*Agent
	// nbIdx[a][b] is a's neighbor index for the adjacency toward b.
	nbIdx map[string]map[string]int
	links map[[2]string]*netsim.Link
}

func newRig(t *testing.T, edges [][2]string) *rig {
	t.Helper()
	r := &rig{
		sched:  simtime.NewScheduler(),
		agents: make(map[string]*Agent),
		nbIdx:  make(map[string]map[string]int),
		links:  make(map[[2]string]*netsim.Link),
	}
	r.net = node.NewNetwork(r.sched)
	lcfg := netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 64}
	// Names are collected and iterated in sorted order: seeds, origination
	// and Start order must not depend on map iteration, or two runs of one
	// rig draw different jitter and the determinism tests rightly fail.
	seen := map[string]bool{}
	var names []string
	for _, e := range edges {
		for _, n := range e {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	seed := int64(1)
	for _, n := range names {
		host := r.net.Router(n)
		h := host
		ag := NewAgent(host, r.sched, seed, func(dest string, l *netsim.Link, metric int) {
			if l == nil {
				h.RemoveRoute(dest)
			} else {
				h.SetRoute(dest, l)
			}
		})
		r.agents[n] = ag
		r.nbIdx[n] = make(map[string]int)
		seed++
	}
	for _, e := range edges {
		d := r.net.ConnectDuplex(e[0], e[1], lcfg)
		r.links[[2]string{e[0], e[1]}] = d.Forward
		r.links[[2]string{e[1], e[0]}] = d.Reverse
		r.nbIdx[e[0]][e[1]] = r.agents[e[0]].AddNeighbor(e[1], d.Forward)
		r.nbIdx[e[1]][e[0]] = r.agents[e[1]].AddNeighbor(e[0], d.Reverse)
	}
	// Warm start: every agent originates its own name and seeds the true
	// shortest-path metrics (BFS over the edge list).
	for _, n := range names {
		ag := r.agents[n]
		ag.Originate(n)
		for nb, idx := range r.nbIdx[n] {
			for dest, d := range bfsDist(nb, edges) {
				if dest == n {
					continue
				}
				ag.SeedRoute(dest, idx, d+1)
			}
		}
	}
	for _, n := range names {
		if err := r.agents[n].Start(); err != nil {
			t.Fatalf("start %s: %v", n, err)
		}
	}
	return r
}

func bfsDist(src string, edges [][2]string) map[string]int {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := map[string]int{src: 0}
	queue := []string{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// flip fails or restores the duplex between a and b: both directional links
// and both agents' local detectors.
func (r *rig) flip(a, b string, down bool) {
	r.links[[2]string{a, b}].SetDown(down)
	r.links[[2]string{b, a}].SetDown(down)
	r.agents[a].LinkState(r.nbIdx[a][b], !down)
	r.agents[b].LinkState(r.nbIdx[b][a], !down)
}

func TestLineFailureAndRecovery(t *testing.T) {
	r := newRig(t, [][2]string{{"a", "b"}, {"b", "c"}})

	ha, hc := r.net.Host("a"), r.net.Host("c")
	if got := ha.RouteTo("c"); got != r.links[[2]string{"a", "b"}] {
		t.Fatalf("warm start: a routes to c over %v, want the a->b link", got)
	}

	r.sched.At(100*time.Millisecond, func() { r.flip("b", "c", true) })
	r.sched.RunUntil(1 * time.Second)
	if l := ha.RouteTo("c"); l != nil {
		t.Fatalf("after b-c failure, a still routes to c over %v", l)
	}
	if l := hc.RouteTo("a"); l != nil {
		t.Fatalf("after b-c failure, c still routes to a over %v", l)
	}

	r.sched.At(2*time.Second, func() { r.flip("b", "c", false) })
	r.sched.RunUntil(5 * time.Second)
	if got := ha.RouteTo("c"); got != r.links[[2]string{"a", "b"}] {
		t.Fatalf("after recovery, a routes to c over %v, want the a->b link", got)
	}
	if got := hc.RouteTo("a"); got != r.links[[2]string{"c", "b"}] {
		t.Fatalf("after recovery, c routes to a over %v, want the c->b link", got)
	}
	for n, ag := range r.agents {
		if ag.Pending() {
			t.Errorf("agent %s still has a pending triggered update at end", n)
		}
	}
}

// TestNoCountToInfinity drops the stub link off a triangle: every router
// must conclude "unreachable" in a bounded number of route changes instead
// of counting the metric up to Infinity around the cycle.
func TestNoCountToInfinity(t *testing.T) {
	r := newRig(t, [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "d"}})

	r.sched.At(100*time.Millisecond, func() { r.flip("c", "d", true) })
	r.sched.RunUntil(6 * time.Second)

	total := 0
	for n, ag := range r.agents {
		if n == "d" {
			continue
		}
		if l := r.net.Host(n).RouteTo("d"); l != nil {
			t.Errorf("%s still routes to d over %v after the stub failed", n, l)
		}
		total += ag.Stats().RouteChanges
	}
	// A count-to-infinity episode would touch the metric Infinity times per
	// router; a clean withdraw changes each RIB a handful of times.
	if total > 4*DefaultInfinity {
		t.Errorf("%d route changes across the fleet, suspicious of count-to-infinity", total)
	}
}

// TestFaultInjectionDeterministic runs one lossy-control-plane scenario
// twice and requires identical protocol statistics and tables.
func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() (map[string]Stats, map[string]string) {
		r := newRig(t, [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}})
		for n, ag := range r.agents {
			for _, idx := range r.nbIdx[n] {
				ag.SetFaults(idx, 0.3, 0.2, 5*time.Millisecond, 0.1)
			}
		}
		r.sched.At(200*time.Millisecond, func() { r.flip("b", "c", true) })
		r.sched.At(2*time.Second, func() { r.flip("b", "c", false) })
		r.sched.RunUntil(8 * time.Second)
		stats := make(map[string]Stats)
		routes := make(map[string]string)
		for n, ag := range r.agents {
			stats[n] = ag.Stats()
			for _, dest := range []string{"a", "b", "c"} {
				m, via, ok := ag.Route(dest)
				routes[n+"->"+dest] = via
				if n != dest && !ok {
					t.Errorf("%s lost its route to %s despite message loss (metric %d)", n, dest, m)
				}
			}
		}
		return stats, routes
	}
	s1, r1 := run()
	s2, r2 := run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("two identical runs produced different stats:\n%v\n%v", s1, s2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("two identical runs produced different tables:\n%v\n%v", r1, r2)
	}
}

// TestHolddownSuppressesEcho pins the holddown accept rule directly: after
// a loss, a fresh advertisement no better than the lost route is rejected
// until the timer expires, while a strictly better one is accepted.
func TestHolddownSuppressesEcho(t *testing.T) {
	sched := simtime.NewScheduler()
	net := node.NewNetwork(sched)
	host := net.Router("r")
	ag := NewAgent(host, sched, 7, nil)
	lcfg := netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, Delay: time.Millisecond}
	d1 := net.ConnectDuplex("r", "n1", lcfg)
	d2 := net.ConnectDuplex("r", "n2", lcfg)
	j1 := ag.AddNeighbor("n1", d1.Forward)
	j2 := ag.AddNeighbor("n2", d2.Forward)
	ag.Originate("r")
	ag.SeedRoute("x", j1, 2)
	if err := ag.Start(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * time.Millisecond)

	// n1's path to x dies.
	ag.learn(j1, "x", DefaultInfinity, sched.Now())
	if _, _, ok := ag.Route("x"); ok {
		t.Fatal("x should be unreachable after the withdraw")
	}
	// n2 echoes a same-cost claim during holddown: must be suppressed.
	ag.learn(j2, "x", 2, sched.Now())
	if _, _, ok := ag.Route("x"); ok {
		t.Fatal("holddown failed: same-cost echo accepted immediately after loss")
	}
	if ag.Stats().HolddownSuppressed == 0 {
		t.Fatal("holddown suppression not counted")
	}
	// A strictly better route is accepted even during holddown.
	ag.learn(j2, "x", 0, sched.Now())
	if m, via, ok := ag.Route("x"); !ok || via != "n2" || m != 1 {
		t.Fatalf("better route during holddown rejected: metric=%d via=%q ok=%v", m, via, ok)
	}
}

// A route to a directly attached neighbor is a connected route: it lasts as
// long as the link. On a link that is up but loses every message, routes the
// neighbor only relays age out after DefaultExpireAfter, while the route to
// the neighbor itself stays installed; when the link goes down, it goes.
func TestConnectedRouteOutlivesLostRefreshes(t *testing.T) {
	r := newRig(t, [][2]string{{"a", "b"}, {"b", "c"}})
	a := r.agents["a"]
	r.agents["b"].SetFaults(r.nbIdx["b"]["a"], 1, 0, 0, 0)
	r.sched.RunFor(4 * DefaultExpireAfter)
	ha := r.net.Host("a")
	if _, via, ok := a.Route("b"); !ok || via != "b" || ha.RouteTo("b") != r.links[[2]string{"a", "b"}] {
		t.Fatalf("a lost its connected route to b over a lossy link that is up: ok=%v via=%q", ok, via)
	}
	if _, _, ok := a.Route("c"); ok || ha.RouteTo("c") != nil {
		t.Fatal("a kept the route to c, which only b's lost refreshes could renew")
	}
	r.flip("a", "b", true)
	if _, _, ok := a.Route("b"); ok || ha.RouteTo("b") != nil {
		t.Fatal("the connected route to b survived its link going down")
	}
}
