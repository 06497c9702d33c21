package scenario

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/node"
)

// routeEngine owns all routing computation for a built simulation. It interns
// node names once at Build and works on flat integer-indexed state from then
// on: a CSR adjacency (offsets, targets, links) in first-mention order and a
// per-entry down-state mirror.
//
// Two modes share the engine:
//
//   - Exact (the default, Spec.Routing empty or "exact"): every host gets a
//     full destination→next-hop table from a deterministic BFS, bit-for-bit
//     identical to the original map-based implementation (ties break by
//     first-mention order). A link event recomputes every table: a BFS per
//     source is cheap at the sizes exact mode serves, and InstallRoutes
//     reports only the entries that really changed.
//   - Hierarchical (Spec.Routing == RoutingHier): for tree-like topologies,
//     levels are measured from Spec.HierRoots and each node's table holds
//     only its children — an exact entry per child, a name-suffix domain
//     entry per child router — plus a default route up. Table memory is
//     O(children) per node and a link event rebuilds only the endpoints of
//     the flipped links, which is what makes 100k-host specs buildable.
//
// In both modes the changed-entry count returned by recompute is the number
// of entries that differ from the tables installed before: InstallRoutes and
// InstallHierRoutes diff what they install, and a hier node whose links did
// not flip keeps its table.
type routeEngine struct {
	n     int
	names []string
	hosts []*node.Host
	// ids[v] is node v's host id, the index of its entries in every table;
	// exact tables span ids [0, span).
	ids  []int32
	span int32
	hier bool
	// domains[v] is the name-suffix domain router v covers downward (hier
	// mode), and domainIDs[v] its id, interned at Build with the hosts.
	domains   []string
	domainIDs []int32

	// CSR adjacency in first-mention order. downMirror[k] is the last
	// observed IsDown state of adjLink[k]; recompute diffs it against the
	// live links, so flips reach the engine without any event plumbing
	// (batched flips from a host move look the same as a single link event).
	adjOff     []int32
	adjFrom    []int32
	adjTo      []int32
	adjLink    []*netsim.Link
	downMirror []bool

	isRouter []bool

	// level[v] is the hop distance from the nearest hierarchy root
	// (hier mode only), computed once over the static topology.
	level []int32

	// BFS scratch, sized n; kids collects a hier node's live children.
	queue    []int32
	kids     []int32
	firstHop []int32

	installed bool
}

// dirEdge is one directional link in Build insertion order.
type dirEdge struct {
	from, to int32
	link     *netsim.Link
}

// newRouteEngine interns the topology. Nodes and edges arrive in
// first-mention order (the order the old map-based router iterated in), and
// index maps a node's name to its position in that order.
func newRouteEngine(spec *Spec, nw *node.Network, names []string, index map[string]int, hosts []*node.Host, edges []dirEdge) (*routeEngine, error) {
	n := len(names)
	e := &routeEngine{
		n:        n,
		names:    names,
		hosts:    hosts,
		ids:      make([]int32, n),
		hier:     spec.Routing == RoutingHier,
		adjOff:   make([]int32, n+1),
		adjFrom:  make([]int32, len(edges)),
		adjTo:    make([]int32, len(edges)),
		adjLink:  make([]*netsim.Link, len(edges)),
		isRouter: make([]bool, n),
		queue:    make([]int32, 0, n),
		firstHop: make([]int32, n),
	}
	// Counting sort of the edge list into CSR keeps each node's adjacency in
	// edge insertion order — exactly the old neighbors-map iteration order.
	for _, ed := range edges {
		e.adjOff[ed.from+1]++
	}
	for v := 0; v < n; v++ {
		e.adjOff[v+1] += e.adjOff[v]
	}
	next := append([]int32(nil), e.adjOff[:n]...)
	for _, ed := range edges {
		k := next[ed.from]
		next[ed.from]++
		e.adjFrom[k] = ed.from
		e.adjTo[k] = ed.to
		e.adjLink[k] = ed.link
	}
	e.downMirror = make([]bool, len(edges))
	for i, h := range hosts {
		e.isRouter[i] = h.Forwarding()
		e.ids[i] = h.ID()
		e.span = max(e.span, h.ID()+1)
	}
	if e.hier {
		e.domains = make([]string, n)
		e.domainIDs = make([]int32, n)
		for i, name := range names {
			if !e.isRouter[i] {
				continue // a leaf covers nothing
			}
			d, ok := spec.Domains[name]
			if !ok {
				d = name
			}
			e.domains[i], e.domainIDs[i] = d, nw.ID(d)
		}
		if err := e.computeLevels(spec, index); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// computeLevels runs the multi-source BFS from the hierarchy roots over the
// static topology (down links still count: an outage changes reachability,
// not the shape of the hierarchy) and checks the tree-likeness hier routing
// relies on: every node is placed, and every link joins adjacent levels.
func (e *routeEngine) computeLevels(spec *Spec, id map[string]int) error {
	e.level = make([]int32, e.n)
	for i := range e.level {
		e.level[i] = -1
	}
	q := e.queue[:0]
	for _, r := range spec.HierRoots {
		v, ok := id[r]
		if !ok {
			return fmt.Errorf("scenario %q: hier root %q not in topology", spec.Name, r)
		}
		if !e.isRouter[v] {
			return fmt.Errorf("scenario %q: hier root %q is not a router", spec.Name, r)
		}
		if e.level[v] != 0 {
			e.level[v] = 0
			q = append(q, int32(v))
		}
	}
	if len(q) == 0 {
		return fmt.Errorf("scenario %q: hier routing needs at least one root (Spec.HierRoots)", spec.Name)
	}
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for k := e.adjOff[u]; k < e.adjOff[u+1]; k++ {
			v := e.adjTo[k]
			if e.level[v] < 0 {
				e.level[v] = e.level[u] + 1
				q = append(q, v)
			}
		}
	}
	e.queue = q[:0]
	for v := 0; v < e.n; v++ {
		if e.level[v] < 0 {
			return fmt.Errorf("scenario %q: node %q unreachable from the hier roots", spec.Name, e.names[v])
		}
	}
	for k := range e.adjLink {
		lu, lv := e.level[e.adjFrom[k]], e.level[e.adjTo[k]]
		if lu-lv != 1 && lv-lu != 1 {
			return fmt.Errorf("scenario %q: hier routing needs a hierarchy: link %s-%s joins two nodes at depth %d",
				spec.Name, e.names[e.adjFrom[k]], e.names[e.adjTo[k]], lu)
		}
	}
	return nil
}

// recompute is the single routing entry point: the first call installs every
// table from scratch; later calls (the dynamics hook, host moves) diff the
// live link states against the mirror and repair routing when anything
// flipped (update). It returns the total changed-entry count across all
// hosts.
func (e *routeEngine) recompute() int {
	if !e.installed {
		e.installed = true
		e.syncMirror()
		return e.installAll()
	}
	return e.update()
}

func (e *routeEngine) syncMirror() {
	for k, l := range e.adjLink {
		e.downMirror[k] = l.IsDown()
	}
}

// detectFlips diffs the live link states against the mirror, updating the
// mirror and returning the adjacency indices whose up/down state changed.
// Both the oracle's update and the protocol control plane's local failure
// detectors consume it.
func (e *routeEngine) detectFlips() []int32 {
	var flips []int32
	for k, l := range e.adjLink {
		if d := l.IsDown(); d != e.downMirror[k] {
			e.downMirror[k] = d
			flips = append(flips, int32(k))
		}
	}
	return flips
}

func (e *routeEngine) installAll() int {
	changed := 0
	if e.hier {
		for v := 0; v < e.n; v++ {
			changed += e.installHierNode(int32(v))
		}
		return changed
	}
	for s := 0; s < e.n; s++ {
		changed += e.installExactNode(int32(s))
	}
	return changed
}

// update finds the directional links whose up/down state changed since the
// last recompute and repairs routing. In exact mode every table is rebuilt.
// In hier mode only the transmitting endpoint of each flipped link owns table
// entries through it, so only those nodes are rebuilt.
func (e *routeEngine) update() int {
	flips := e.detectFlips()
	if len(flips) == 0 {
		return 0
	}
	if !e.hier {
		return e.installAll()
	}
	changed := 0
	for _, u := range e.flipSenders(flips) {
		changed += e.installHierNode(u)
	}
	return changed
}

// flipSenders reduces flipped adjacency entries to their distinct
// transmitting endpoints, in first-flip order.
func (e *routeEngine) flipSenders(flips []int32) []int32 {
	var senders []int32
	for _, k := range flips {
		if u := e.adjFrom[k]; !slices.Contains(senders, u) {
			senders = append(senders, u)
		}
	}
	return senders
}

// installExactNode BFSes from src and installs the full destination table,
// returning the changed-entry count. The BFS propagates the first hop along
// the parent chain, which yields the same link the old implementation found
// by walking parent pointers back to the source.
func (e *routeEngine) installExactNode(src int32) int {
	e.bfs(src)
	table := make([]*netsim.Link, e.span)
	for v, k := range e.firstHop {
		if k >= 0 { // none for src, nor for the unreachable: Output counts a NoRouteDrop
			table[e.ids[v]] = e.adjLink[k]
		}
	}
	return e.hosts[src].InstallRoutes(node.RouteTable{Links: table})
}

// bfs fills the firstHop scratch from src over the live links, skipping those
// that are down: firstHop[v] is the adjacency index src leaves by towards v,
// -1 for src itself and for unreachable nodes. Ties break by first-mention
// order: the adjacency preserves edge insertion order, so tables are
// deterministic.
func (e *routeEngine) bfs(src int32) {
	fh := e.firstHop
	for i := range fh {
		fh[i] = -1
	}
	q := append(e.queue[:0], src)
	for qi := 0; qi < len(q); qi++ {
		u := q[qi]
		for k := e.adjOff[u]; k < e.adjOff[u+1]; k++ {
			if e.adjLink[k].IsDown() {
				continue
			}
			v := e.adjTo[k]
			if v == src || fh[v] >= 0 {
				continue
			}
			if u == src {
				fh[v] = k
			} else {
				fh[v] = fh[u]
			}
			q = append(q, v)
		}
	}
	e.queue = q[:0]
}

// installHierNode rebuilds one node's hierarchical table from its own links
// (hierTables). A node's table depends on nothing beyond its own adjacency,
// which is what makes the incremental path O(flipped links).
func (e *routeEngine) installHierNode(u int32) int {
	routes, domains, def := e.hierTables(u, true)
	return e.hosts[u].InstallHierRoutes(routes, domains, def)
}

// hierTables builds node u's hierarchical tables from its own links: an exact
// entry per live child, with withDomains a domain entry per live child router
// (the first link to claim a domain keeps it), and a default route on the
// first live up link starting from a per-node rotation (so redundant up links
// — a fat-tree edge switch's k/2 aggregations — are spread across sources
// instead of all picking the first). Each table spans just the ids it holds,
// and is made only when it holds one: a leaf, whose only link goes up, gets
// none.
func (e *routeEngine) hierTables(u int32, withDomains bool) (routes, domains node.RouteTable, def *netsim.Link) {
	lv := e.level[u]
	up := e.queue[:0] // borrow the BFS scratch for the up-slot list
	kids := e.kids[:0]
	var lo, hi, dlo, dhi int32 = math.MaxInt32, 0, math.MaxInt32, 0
	for k := e.adjOff[u]; k < e.adjOff[u+1]; k++ {
		v := e.adjTo[k]
		if e.level[v] == lv-1 {
			up = append(up, k)
			continue
		}
		if e.adjLink[k].IsDown() {
			continue
		}
		kids = append(kids, k)
		lo, hi = min(lo, e.ids[v]), max(hi, e.ids[v])
		if withDomains && e.isRouter[v] {
			dlo, dhi = min(dlo, e.domainIDs[v]), max(dhi, e.domainIDs[v])
		}
	}
	if len(kids) > 0 {
		routes = node.RouteTable{Base: lo, Links: make([]*netsim.Link, hi-lo+1)}
	}
	if dhi > 0 {
		domains = node.RouteTable{Base: dlo, Links: make([]*netsim.Link, dhi-dlo+1)}
	}
	for _, k := range kids {
		v := e.adjTo[k]
		routes.Links[e.ids[v]-lo] = e.adjLink[k]
		if withDomains && e.isRouter[v] && domains.Links[e.domainIDs[v]-dlo] == nil {
			domains.Links[e.domainIDs[v]-dlo] = e.adjLink[k]
		}
	}
	if len(up) > 0 {
		start := int(u) % len(up)
		for i := 0; i < len(up); i++ {
			k := up[(start+i)%len(up)]
			if !e.adjLink[k].IsDown() {
				def = e.adjLink[k]
				break
			}
		}
	}
	e.queue, e.kids = up[:0], kids[:0]
	return routes, domains, def
}
