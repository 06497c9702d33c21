// Protocol-mode routing: the glue between the interned route engine and the
// internal/routeproto distance-vector control plane (Spec.RouteSync ==
// RouteSyncProtocol).
//
// In oracle mode (the default) the engine recomputes tables instantly and
// globally at every topology event — the simulator plays omniscient routing
// god. In protocol mode the same adjacency carries a real control plane: one
// routeproto.Agent per node (per router in hier mode) detects link flips
// locally, originates advertise/withdraw updates, and propagates them
// hop-by-hop as ordinary simulated packets that queue, drop and cross shard
// barriers like data traffic. Tables update incrementally per received
// message, so a failure opens a measurable blackhole window that closes when
// the protocol converges — the behaviour the oracle hides.
//
// The split of responsibilities in hier mode mirrors what a real hierarchical
// IGP does: the locally-derivable part of each table (exact entries for live
// children, the rotated default up) is repaired immediately by the local
// failure detector, while every name-suffix *domain* entry — own pod, remote
// pods, child routers — is owned by the distance-vector exchange. Each router
// additionally pins a permanent nil (reject) entry for the domain it covers:
// traffic for a dead child then drops at the covering router instead of
// bouncing off the default route into a forwarding loop.
//
// Everything here runs either on an agent's own scheduler (message handling,
// timers) or in single-threaded control phases (build, barriers, dynamics
// hooks), the same ownership discipline as the rest of the scenario layer;
// sharded runs stay byte-identical to serial ones.
package scenario

import (
	"sync/atomic"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/routeproto"
)

// routeAuditLimit bounds the O(pairs × path) end-of-run forwarding audit.
// Beyond it the audit fields stay zero and AuditedPairs reports 0.
const routeAuditLimit = 512

// exactProtocolNodeLimit caps exact-mode protocol specs (Validate refuses a
// larger one): every agent's RIB holds an entry per node, so the control
// plane's memory and its warm-start seeding grow as the square of the node
// count. Larger topologies use hier routing, whose RIBs hold domains.
const exactProtocolNodeLimit = 1024

// protoPlane owns the protocol-mode control plane of one built simulation.
type protoPlane struct {
	sim *Sim
	eng *routeEngine

	// agents[v] is node v's protocol speaker: every node in exact mode,
	// routers only in hier mode (leaves keep purely local tables).
	agents []*routeproto.Agent
	// edgeNb[k] is the neighbor index the adjacency entry k corresponds to
	// within agents[adjFrom[k]], or -1 when either endpoint runs no agent.
	edgeNb []int32
	// edgeOf maps a directional link back to its adjacency index.
	edgeOf map[*netsim.Link]int32
	// defMirror[v] is the last default route hierLocal installed on node v,
	// kept so default changes are counted like table entries.
	defMirror []*netsim.Link

	// totalChanged accumulates every forwarding-table change the plane
	// applied (agent installs, local hier repairs); topologyChanged reports
	// deltas of it, matching the oracle's changed-entry accounting.
	// installChanged is its value right after the initial installation, so
	// RoutingResult.TableChanges reports only post-install churn.
	// totalChanged is atomic because the agents' install callbacks run on
	// their hosts' shards, concurrently within a window; a sum does not
	// depend on the order of its terms, so the count stays deterministic.
	totalChanged   atomic.Int64
	installChanged int64
	installed      bool

	// Convergence bookkeeping (armed at Start, sampled at a run barrier).
	lastTopo  time.Duration // last topology-affecting event, -1 if none
	bound     time.Duration // computed convergence bound
	deadline  time.Duration // lastTopo + bound (0 when no events)
	baseTaken bool          // baseline drop counters captured at deadline
	baseDrops int64         // route-drop sum at the deadline
}

// newProtoPlane builds the control plane over a freshly interned engine:
// agents, adjacency→neighbor mapping, origins, and the warm-start RIB seeding
// that makes time zero match the oracle's converged state (so a protocol run
// starts clean and only *events* open blackhole windows).
func newProtoPlane(sim *Sim) *protoPlane {
	e := sim.routing
	pp := &protoPlane{
		sim:       sim,
		eng:       e,
		agents:    make([]*routeproto.Agent, e.n),
		edgeNb:    make([]int32, len(e.adjLink)),
		edgeOf:    make(map[*netsim.Link]int32, len(e.adjLink)),
		defMirror: make([]*netsim.Link, e.n),
	}
	for k := range pp.edgeNb {
		pp.edgeNb[k] = -1
		pp.edgeOf[e.adjLink[k]] = int32(k)
	}
	for v := int32(0); v < int32(e.n); v++ {
		if e.hier && !e.isRouter[v] {
			continue
		}
		host := e.hosts[v]
		seed := sim.Spec.Seed + int64(v+1)*subSeedStride + 0x40e7
		pp.agents[v] = routeproto.NewAgent(host, sim.clockFor(e.names[v]), seed, pp.installFunc(v))
	}
	// Neighbor slots in adjacency order: deterministic, and the same tie-break
	// order (lowest slot wins) on every run.
	for k := range e.adjLink {
		u, v := e.adjFrom[k], e.adjTo[k]
		if pp.agents[u] == nil || pp.agents[v] == nil {
			continue
		}
		pp.edgeNb[k] = int32(pp.agents[u].AddNeighbor(e.names[v], e.adjLink[k]))
	}
	pp.seed()
	return pp
}

// installFunc returns node v's table-install callback: the protocol's only
// write path into the forwarding state. Exact mode installs host entries,
// hier mode domain entries; a nil link withdraws. A router's own covering
// domain is never touched — it stays the permanent reject entry install()
// pins at setup.
func (pp *protoPlane) installFunc(v int32) routeproto.InstallFunc {
	e := pp.eng
	h := e.hosts[v]
	if !e.hier {
		return func(dest string, l *netsim.Link, metric int) {
			if l == nil {
				if h.RemoveRoute(dest) {
					pp.totalChanged.Add(1)
				}
			} else if h.SetRoute(dest, l) {
				pp.totalChanged.Add(1)
			}
		}
	}
	own := e.domains[v]
	return func(dest string, l *netsim.Link, metric int) {
		if dest == own {
			return
		}
		if l == nil {
			if h.RemoveDomainRoute(dest) {
				pp.totalChanged.Add(1)
			}
		} else if h.SetDomainRoute(dest, l) {
			pp.totalChanged.Add(1)
		}
	}
}

// seed warm-starts the agents' RIBs. Every agent originates its own
// destination at metric 0 — its host name in exact mode, the domain it covers
// in hier mode — and a multi-source BFS per destination from its originators,
// over the links between agents, provides the neighbor metrics: agent v's
// column for neighbor w holds dist(w)+1, which is exactly what w's first full
// update would carry. At Build no link is down and every duplex is symmetric,
// so the distance from the originators is the distance to them. Start() then
// installs the resulting bests silently, so the t=0 tables equal the oracle's
// up to tie-breaks the protocol itself would have produced. RIB size is
// O(agents × destinations).
func (pp *protoPlane) seed() {
	e := pp.eng
	own := e.names
	if e.hier {
		own = e.domains
	}
	originators := make(map[string][]int32)
	var order []string
	for v := int32(0); v < int32(e.n); v++ {
		if pp.agents[v] == nil {
			continue
		}
		d := own[v]
		if _, ok := originators[d]; !ok {
			order = append(order, d)
		}
		originators[d] = append(originators[d], v)
		pp.agents[v].Originate(d)
	}
	dist := make([]int32, e.n)
	queue := make([]int32, 0, e.n)
	for _, dest := range order {
		for i := range dist {
			dist[i] = -1
		}
		q := queue[:0]
		for _, r := range originators[dest] {
			dist[r] = 0
			q = append(q, r)
		}
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			for k := e.adjOff[u]; k < e.adjOff[u+1]; k++ {
				if pp.edgeNb[k] < 0 {
					continue
				}
				v := e.adjTo[k]
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					q = append(q, v)
				}
			}
		}
		for v := int32(0); v < int32(e.n); v++ {
			if pp.agents[v] == nil || own[v] == dest {
				continue
			}
			for k := e.adjOff[v]; k < e.adjOff[v+1]; k++ {
				j := pp.edgeNb[k]
				if j < 0 || dist[e.adjTo[k]] < 0 {
					continue
				}
				pp.agents[v].SeedRoute(dest, int(j), int(dist[e.adjTo[k]])+1)
			}
		}
	}
}

// install performs the initial table installation (the protocol-mode
// equivalent of the engine's installAll): local hier tables and reject
// entries, then every agent's warm-started bests, then the mirror sync that
// arms flip detection.
func (pp *protoPlane) install() int {
	e := pp.eng
	before := pp.totalChanged.Load()
	if e.hier {
		for v := int32(0); v < int32(e.n); v++ {
			pp.hierLocal(v)
		}
		for v := int32(0); v < int32(e.n); v++ {
			if pp.agents[v] == nil {
				continue
			}
			if e.hosts[v].SetDomainRoute(e.domains[v], nil) {
				pp.totalChanged.Add(1)
			}
		}
	}
	for v := int32(0); v < int32(e.n); v++ {
		if ag := pp.agents[v]; ag != nil {
			if err := ag.Start(); err != nil {
				// Impossible by construction: each host binds the protocol
				// port exactly once.
				panic(err)
			}
		}
	}
	e.syncMirror()
	pp.installChanged = pp.totalChanged.Load()
	return int(pp.totalChanged.Load() - before)
}

// topologyChanged is the protocol-mode recomputeRoutes: instead of a global
// recompute it runs only the *local* part of failure handling — each flipped
// link's transmitting endpoint repairs its locally-derivable table state and
// notifies its agent's failure detector. Everything beyond one hop travels
// through the simulated network as protocol messages. Returns the number of
// table entries changed synchronously (the asynchronous churn shows up in
// RoutingResult.TableChanges at the end).
func (pp *protoPlane) topologyChanged() int {
	if !pp.installed {
		pp.installed = true
		return pp.install()
	}
	e := pp.eng
	flips := e.detectFlips()
	if len(flips) == 0 {
		return 0
	}
	before := pp.totalChanged.Load()
	if e.hier {
		for _, u := range e.flipSenders(flips) {
			pp.hierLocal(u)
		}
	}
	for _, k := range flips {
		if j := pp.edgeNb[k]; j >= 0 {
			pp.agents[e.adjFrom[k]].LinkState(int(j), !e.downMirror[k])
		}
	}
	return int(pp.totalChanged.Load() - before)
}

// hierLocal rebuilds the locally-derivable part of node u's hier table: an
// exact entry per live child and the rotated default up link — the same
// choices installHierNode makes, minus the domain entries the protocol owns.
func (pp *protoPlane) hierLocal(u int32) {
	e := pp.eng
	routes, _, def := e.hierTables(u, false)
	pp.totalChanged.Add(int64(e.hosts[u].InstallRoutes(routes)))
	if pp.defMirror[u] != def {
		pp.defMirror[u] = def
		e.hosts[u].SetDefaultRoute(def)
		pp.totalChanged.Add(1)
	}
}

// applyRouteFaults realises a set-route-faults event: the injection rates
// apply to the agents transmitting on the targeted link direction(s).
func (pp *protoPlane) applyRouteFaults(ev dynamics.Event) {
	d := pp.sim.duplexes[ev.Link]
	apply := func(l *netsim.Link) {
		k, ok := pp.edgeOf[l]
		if !ok {
			return
		}
		j := pp.edgeNb[k]
		if j < 0 {
			return
		}
		pp.agents[pp.eng.adjFrom[k]].SetFaults(int(j), ev.DropRate, ev.DelayRate, ev.Delay, ev.DuplicateRate)
	}
	switch ev.Direction {
	case dynamics.DirForward:
		apply(d.Forward)
	case dynamics.DirReverse:
		apply(d.Reverse)
	default:
		apply(d.Forward)
		apply(d.Reverse)
	}
}

// arm computes the convergence deadline from the expanded event list and —
// when the deadline falls inside the run — registers the barrier observer
// that captures the baseline route-drop counters exactly at it. Called from
// Start, after every event expansion.
func (pp *protoPlane) arm() {
	last := time.Duration(-1)
	for _, ev := range pp.sim.Spec.Events {
		switch ev.Kind {
		case dynamics.LinkDown, dynamics.LinkUp, dynamics.HostMove, dynamics.HostAttach:
			at := ev.At
			if at < 0 {
				at = 0
			}
			if at > last {
				last = at
			}
		}
	}
	pp.lastTopo = last
	if last < 0 {
		// No topology events: converged from t=0 with a zero baseline.
		pp.deadline = 0
		pp.baseTaken = true
		return
	}
	pp.bound = pp.convergenceBound()
	pp.deadline = last + pp.bound
	if pp.deadline <= pp.sim.Spec.Duration {
		pp.sim.shard.schedule(barrierAction{at: pp.deadline, rank: rankObserve, fire: func(time.Duration) time.Duration {
			pp.baseDrops = pp.routeDrops()
			pp.baseTaken = true
			return never
		}})
	}
}

// convergenceBound is the formula documented in docs/ROUTING.md: after the
// last topology event, stale state can survive one full route-expiry period
// (plus the refresh-tick sweep granularity that detects it); holddown defers
// one final selection; and the distance-vector exchange takes at most
// Infinity metric-counting steps per destination — every per-node metric
// moves monotonically toward the fixpoint, each step propagating within one
// triggered-update jitter plus one link traversal. One periodic refresh
// additionally covers any triggered update lost to fault injection *before*
// the faults cleared. (The bound presumes control-plane fault rates are zero
// after the last topology event; campaigns clear them first.)
func (pp *protoPlane) convergenceBound() time.Duration {
	maxDelay := time.Duration(0)
	for _, ls := range pp.sim.Spec.Links {
		if ls.Delay > maxDelay {
			maxDelay = ls.Delay
		}
	}
	perStep := routeproto.DefaultTriggerDelayMax + maxDelay + 5*time.Millisecond
	return routeproto.DefaultExpireAfter + routeproto.DefaultHolddown + routeproto.DefaultRefreshInterval +
		routeproto.DefaultInfinity*perStep
}

// routeDrops sums node.HostStats.RouteDrops across every host: the blackhole
// metric the convergence invariant is defined over.
func (pp *protoPlane) routeDrops() int64 {
	var sum int64
	for _, h := range pp.eng.hosts {
		sum += int64(h.Stats().RouteDrops())
	}
	return sum
}

// audit walks every host pair's next-hop chain through the installed tables
// at end of run: a chain longer than n hops is a forwarding loop; a chain
// that dead-ends while the pair is reachable over live links (transiting
// only forwarding nodes) is an unreached pair; a pair with no live path at
// all is a partitioned pair (whose traffic is *supposed* to keep dropping).
// Only leaf (non-router) pairs are walked: routers are not addressable
// endpoints in hier mode — they sit above the name hierarchy and are reached
// only through defaults, in oracle mode just the same. Skipped above
// routeAuditLimit nodes.
func (pp *protoPlane) audit() (pairs, loops, unreached, partitioned int) {
	e := pp.eng
	if e.n > routeAuditLimit {
		return 0, 0, 0, 0
	}
	reach := make([]bool, e.n)
	queue := make([]int32, 0, e.n)
	for src := int32(0); src < int32(e.n); src++ {
		if e.isRouter[src] {
			continue
		}
		// Live reachability from src, transiting forwarding nodes only.
		for i := range reach {
			reach[i] = false
		}
		q := queue[:0]
		reach[src] = true
		q = append(q, src)
		for qi := 0; qi < len(q); qi++ {
			u := q[qi]
			if u != src && !e.isRouter[u] {
				continue // a leaf receives but does not transit
			}
			for k := e.adjOff[u]; k < e.adjOff[u+1]; k++ {
				if e.adjLink[k].IsDown() {
					continue
				}
				if v := e.adjTo[k]; !reach[v] {
					reach[v] = true
					q = append(q, v)
				}
			}
		}
		for dst := int32(0); dst < int32(e.n); dst++ {
			if dst == src || e.isRouter[dst] {
				continue
			}
			pairs++
			delivered, looped := pp.walk(src, dst)
			switch {
			case looped:
				loops++
			case !reach[dst]:
				partitioned++
			case !delivered:
				unreached++
			}
		}
	}
	return pairs, loops, unreached, partitioned
}

// walk emulates forwarding one packet from src to dst over the installed
// tables and live links, without TTL (any revisit within n+1 hops is a loop).
func (pp *protoPlane) walk(src, dst int32) (delivered, looped bool) {
	e := pp.eng
	dstName := e.names[dst]
	cur := src
	for step := 0; step <= e.n; step++ {
		if cur == dst {
			return true, false
		}
		h := e.hosts[cur]
		if cur != src && !h.Forwarding() {
			return false, false // dies as a route-miss at a leaf
		}
		l := h.RouteTo(dstName)
		if l == nil || l.IsDown() {
			return false, false
		}
		k, ok := pp.edgeOf[l]
		if !ok {
			return false, false
		}
		cur = e.adjTo[k]
	}
	return false, true
}

// RoutingResult summarises the protocol control plane of one run: aggregate
// message/refresh/fault statistics across every agent, the convergence
// verdict, and the end-of-run forwarding audit. Present in the Result only
// for protocol-mode runs, so oracle-mode results are byte-identical to
// earlier releases.
type RoutingResult struct {
	// Mode is "exact" or "hier".
	Mode   string `json:"mode"`
	Agents int    `json:"agents"`
	routeproto.Stats
	// TableChanges counts every forwarding-table entry the control plane
	// changed over the run (initial installation excluded).
	TableChanges int `json:"table_changes"`
	// PendingAtEnd counts agents still holding an unflushed triggered update
	// at end of run — nonzero means the protocol had not quiesced.
	PendingAtEnd int `json:"pending_at_end"`
	// LastTopologyChange is the time of the last topology-affecting event
	// (zero when the run had none); ConvergenceBound the computed bound, and
	// ConvergenceDeadline their sum — after it, the run must be blackhole-
	// free. Converged reports that the deadline fell inside the run.
	LastTopologyChange  time.Duration `json:"last_topology_change"`
	ConvergenceBound    time.Duration `json:"convergence_bound,omitempty"`
	ConvergenceDeadline time.Duration `json:"convergence_deadline"`
	Converged           bool          `json:"converged"`
	// PostConvergenceRouteDrops counts routing-failure drops (no-route,
	// route-miss, forward-miss, TTL) after the deadline; zero is the
	// "bounded blackhole window" guarantee.
	PostConvergenceRouteDrops int64 `json:"post_convergence_route_drops"`
	// AuditedPairs/LoopPairs/UnreachedPairs/PartitionedPairs report the
	// end-of-run forwarding audit (all zero when the topology exceeds
	// routeAuditLimit nodes). Partitioned pairs have no live path at all;
	// their traffic keeps dropping after convergence by design, so the
	// blackhole-window invariant only applies when they are zero.
	AuditedPairs     int `json:"audited_pairs"`
	LoopPairs        int `json:"loop_pairs"`
	UnreachedPairs   int `json:"unreached_pairs"`
	PartitionedPairs int `json:"partitioned_pairs"`
}

// result assembles the RoutingResult at collection time. The audit and the
// post-convergence accounting only apply to a finished run (collect may also
// be called mid-run for snapshots).
func (pp *protoPlane) result() *RoutingResult {
	e := pp.eng
	rr := &RoutingResult{Mode: RoutingExact, TableChanges: int(pp.totalChanged.Load() - pp.installChanged)}
	if e.hier {
		rr.Mode = RoutingHier
	}
	for _, ag := range pp.agents {
		if ag == nil {
			continue
		}
		rr.Agents++
		rr.Stats.Add(ag.Stats())
		if ag.Pending() {
			rr.PendingAtEnd++
		}
	}
	if pp.lastTopo > 0 {
		rr.LastTopologyChange = pp.lastTopo
	}
	if pp.lastTopo >= 0 {
		rr.ConvergenceBound = pp.bound
	}
	rr.ConvergenceDeadline = pp.deadline
	now := pp.sim.now()
	rr.Converged = pp.baseTaken && pp.deadline <= now
	if rr.Converged {
		rr.PostConvergenceRouteDrops = pp.routeDrops() - pp.baseDrops
	}
	if now >= pp.sim.Spec.Duration {
		rr.AuditedPairs, rr.LoopPairs, rr.UnreachedPairs, rr.PartitionedPairs = pp.audit()
	}
	return rr
}
