// Package scenario is the declarative experiment layer of the reproduction.
// A Spec describes a topology (hosts, routers, links), the workloads that run
// over it and how long the simulation lasts; Build turns a Spec into a wired
// simulation and Run executes it to a Result. Canned builders (Dumbbell,
// ParkingLot, Star, PointToPoint) cover the common shapes of the congestion
// literature, and a registry maps scenario names to specs so command-line
// tools can run them by name.
//
// Every simulation owns its scheduler and per-link seeded random sources, so
// a scenario's Result is a pure function of its Spec: running many scenarios
// concurrently (see RunAll) yields byte-identical results to running them
// one after another.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/cm"
	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/probe"
)

// Congestion-control selectors for workloads, mirroring tcp.CCCM/CCNative
// without importing the transport here.
const (
	CCCM     = "cm"
	CCNative = "native"
)

// Workload kinds.
const (
	// KindBulk transfers Bytes per flow and closes the connection; the flow
	// completes when the receiver has everything.
	KindBulk = "bulk"
	// KindStream keeps the flow backlogged for the whole scenario duration
	// (an "infinite" transfer); it never completes.
	KindStream = "stream"
	// KindUDPRate runs the layered UDP streaming application in its
	// rate-callback mode (§3.4): a libcm client clocks packets out at the
	// current layer's rate and switches layers on cm_thresh callbacks. The
	// workload requires (and defaults to) the CM congestion controller.
	KindUDPRate = "udp-rate"
	// KindUDPALF runs the same application in its ALF request/callback mode
	// (§3.5): every packet waits for a cmapp_send grant and the layer is
	// re-chosen from cm_query inside the callback.
	KindUDPALF = "udp-alf"
	// KindWebMix is a background web-like request mix: Flows short TCP
	// request/response transfers whose arrival times form a seeded Poisson
	// process of rate Rate and whose sizes are drawn (seeded, exponential)
	// around a mean of Bytes. Each request is an ordinary bulk flow on its
	// own port; with CC = cm the mix becomes the paper's ensemble of short
	// flows sharing one macroflow.
	KindWebMix = "webmix"
)

// udpKind reports whether the workload kind is one of the layered UDP
// applications (CM clients attached through libcm rather than TCP dialers).
func udpKind(kind string) bool { return kind == KindUDPRate || kind == KindUDPALF }

// LinkSpec declares one duplex link between two nodes. The embedded
// netsim.LinkConfig carries bandwidth, delay, queueing and impairment knobs;
// a zero Seed is replaced by a deterministic per-link seed derived from the
// spec seed so results stay reproducible without hand-numbering every link.
type LinkSpec struct {
	// A and B are the endpoint node names. ConnectDuplex wires A->B as the
	// forward direction.
	A string `json:"a"`
	B string `json:"b"`
	netsim.LinkConfig
}

// Workload declares a group of identical transport flows.
type Workload struct {
	// Kind is KindBulk (default) or KindStream.
	Kind string `json:"kind,omitempty"`
	// From and To are the sending and receiving host names. The flows of
	// every workload listen on consecutive ports from 5000, in declaration
	// order.
	From string `json:"from"`
	To   string `json:"to"`
	// Flows is the number of concurrent connections (default 1).
	Flows int `json:"flows,omitempty"`
	// Bytes is the per-flow transfer size for KindBulk (default 1 MB).
	Bytes int `json:"bytes,omitempty"`
	// CC selects the congestion controller: CCNative (default) or CCCM. A
	// CCCM workload implies a Congestion Manager on the From host.
	CC string `json:"cc,omitempty"`
	// Start delays connection establishment into the run.
	Start time.Duration `json:"start,omitempty"`
	// RecvWindow is the receiver's advertised window (default 1 MB).
	RecvWindow int `json:"recv_window,omitempty"`
	// Rate is the mean request arrival rate of a KindWebMix workload in
	// requests per second (default 10). For a web mix, Flows is the total
	// number of requests, Bytes the mean response size, and Start shifts the
	// whole arrival process into the run.
	Rate float64 `json:"rate,omitempty"`
}

// Spec is a complete, self-contained description of one simulation.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Links defines the topology; nodes are created on first mention.
	Links []LinkSpec `json:"links"`
	// Routers lists the nodes that forward transit packets. Routes between
	// all node pairs are computed with shortest-path (hop count) over Links.
	Routers []string `json:"routers,omitempty"`
	// CMHosts lists hosts that run a Congestion Manager with the IP output
	// hook installed. Hosts sourcing a CCCM workload are added automatically.
	CMHosts []string `json:"cm_hosts,omitempty"`
	// Workloads are the traffic sources.
	Workloads []Workload `json:"workloads"`
	// Events is the network-dynamics timeline: scheduled link up/down,
	// bandwidth changes, bursty-loss (Gilbert-Elliott) mode switches and
	// host faults, applied mid-run by the dynamics subsystem. Events with
	// At <= 0 are applied at Build, before any traffic.
	Events []dynamics.Event `json:"events,omitempty"`
	// Generators are seeded stochastic event sources (Poisson link flaps, CM
	// restarts). Build expands each into ordinary deterministic Events merged
	// with the declared ones, so generated churn inherits the timeline's
	// serial/parallel/sharded byte-identity.
	Generators []dynamics.Generator `json:"generators,omitempty"`
	// Duration is how much virtual time to simulate (default 30 s).
	Duration time.Duration `json:"duration,omitempty"`
	// Seed derives per-link seeds for links that leave Seed zero (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Shards requests sharded execution: the topology is partitioned into up
	// to Shards host groups (delay-weighted, so the smallest cross-shard link
	// delay — the conservative lookahead — is maximized) and each group runs
	// on its own scheduler and worker goroutine. Results are byte-identical
	// to a serial run. 0 or 1 runs serially; so does any partition whose
	// lookahead would be zero.
	Shards int `json:"shards,omitempty"`
	// Routing selects the routing mode: RoutingExact (the default when empty)
	// computes a full destination table per node by all-pairs shortest path;
	// RoutingHier installs hierarchical tables — exact entries for children,
	// name-suffix domain entries for child routers, a default route up — on
	// tree-like topologies rooted at HierRoots. Hierarchical routing keeps
	// per-node table memory at O(children) instead of O(nodes), which is what
	// makes 100k-host fat-tree and ISP specs buildable.
	Routing string `json:"routing,omitempty"`
	// HierRoots names the top-level routers of a RoutingHier topology (a
	// fat-tree's core switches). Every node must be reachable from the roots
	// and every link must join adjacent hierarchy levels.
	HierRoots []string `json:"hier_roots,omitempty"`
	// Domains optionally maps a router to the name-suffix domain it covers
	// downward, for routers whose subtree is named after something other than
	// the router itself (a fat-tree aggregation switch "a0.p2" covers the pod
	// suffix "p2"). A router absent from the map covers its own name: hosts
	// under an edge switch "e1.p2" are named "h<i>.e1.p2".
	Domains map[string]string `json:"domains,omitempty"`
	// RouteSync selects how routing tables track topology changes.
	// RouteSyncOracle (the default when empty) recomputes tables instantly
	// and globally at each link event — the pre-existing BFS path.
	// RouteSyncProtocol runs the distance-vector control plane
	// (internal/routeproto) instead: endpoints detect flips locally and
	// advertise/withdraw routes hop-by-hop as simulated packets, so failures
	// open a bounded blackhole window that heals by convergence rather than
	// by fiat. Works with both exact and hier routing (see docs/ROUTING.md).
	RouteSync string `json:"route_sync,omitempty"`
	// Probes declares mid-run sampling probes. Each probe samples its target
	// (see probe.ParseTarget for the path grammar) every Interval of virtual
	// time at an executor barrier, seeing every event before the sampling
	// instant and none at it, and yields one entry of Result.Series. Probes
	// are observation-only: they consume no randomness and mutate nothing, so
	// results stay byte-identical with or without them, serial or sharded
	// (see docs/OBSERVABILITY.md).
	Probes []probe.Spec `json:"probes,omitempty"`
	// TraceDepth, when positive, enables the flight recorder: every host
	// gets a fixed ring of the last TraceDepth structured trace events
	// (packet enqueue/drop/deliver, CM request/grant/notify, faults). Zero
	// disables tracing, which is the allocation-free default.
	TraceDepth int `json:"trace_depth,omitempty"`
	// SnapshotEvery, when positive, captures a full mid-run Result every
	// such period so invariants can be checked as the run unfolds
	// (faults.CheckSnapshot) instead of at the end only. Snapshots are
	// observation-only and are reported via Sim.Snapshots, never inside the
	// Result itself.
	SnapshotEvery time.Duration `json:"snapshot_every,omitempty"`
	// CMOpts configures every Congestion Manager the spec instantiates. It
	// is programmatic-only state (functions), invisible to JSON.
	CMOpts []cm.Option `json:"-"`
}

// Routing modes.
const (
	RoutingExact = "exact"
	RoutingHier  = "hier"
)

// Route-synchronisation modes (Spec.RouteSync).
const (
	RouteSyncOracle   = "oracle"
	RouteSyncProtocol = "protocol"
)

// routeProtocol reports whether the spec runs the distance-vector control
// plane instead of the oracle.
func (s *Spec) routeProtocol() bool { return s.RouteSync == RouteSyncProtocol }

// fillDefaults normalises the spec in place. Only zero fields take a
// default: a negative one is a spec error that Validate must still see. The
// Workloads slice is cloned before any write: specs are replicated by value
// for batch runs (cmsim -runs, the determinism tests), and the copies would
// otherwise share one backing array that concurrent Run calls then race on.
func (s *Spec) fillDefaults() {
	if s.Duration == 0 {
		s.Duration = 30 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Workloads = append([]Workload(nil), s.Workloads...)
	for i := range s.Workloads {
		w := &s.Workloads[i]
		if w.Kind == "" {
			w.Kind = KindBulk
		}
		if w.Kind == KindWebMix {
			if w.Flows == 0 {
				w.Flows = 32
			}
			if w.Rate == 0 {
				w.Rate = 10
			}
			if w.Bytes == 0 {
				w.Bytes = 12 << 10
			}
		}
		if w.Flows == 0 {
			w.Flows = 1
		}
		if w.CC == "" {
			// The layered UDP applications are CM clients by construction;
			// TCP workloads default to the native controller.
			if udpKind(w.Kind) {
				w.CC = CCCM
			} else {
				w.CC = CCNative
			}
		}
		if w.Bytes == 0 && w.Kind == KindBulk {
			w.Bytes = 1 << 20
		}
		if w.RecvWindow == 0 {
			w.RecvWindow = 1 << 20
		}
	}
}

// Validate checks the spec for structural errors: empty topology, links with
// invalid endpoints or an out-of-range LinkConfig, workloads referring to
// unknown nodes, unknown workload kinds or congestion controllers, and
// workloads sourced at routers (routers carry transit traffic only).
func (s *Spec) Validate() error {
	if len(s.Links) == 0 {
		return fmt.Errorf("scenario %q: no links", s.Name)
	}
	nodes := make(map[string]bool)
	for i, l := range s.Links {
		if l.A == "" || l.B == "" || l.A == l.B {
			return fmt.Errorf("scenario %q: link %d endpoints %q-%q invalid", s.Name, i, l.A, l.B)
		}
		if err := l.LinkConfig.Validate(); err != nil {
			return fmt.Errorf("scenario %q: link %d: %w", s.Name, i, err)
		}
		nodes[l.A] = true
		nodes[l.B] = true
	}
	router := make(map[string]bool)
	for _, r := range s.Routers {
		if !nodes[r] {
			return fmt.Errorf("scenario %q: router %q not attached to any link", s.Name, r)
		}
		router[r] = true
	}
	for _, h := range s.CMHosts {
		if !nodes[h] {
			return fmt.Errorf("scenario %q: CM host %q not attached to any link", s.Name, h)
		}
	}
	// An empty workload list is allowed: experiment runners Build a bare
	// topology and attach their own programmatic traffic.
	for i, w := range s.Workloads {
		if !nodes[w.From] || !nodes[w.To] {
			return fmt.Errorf("scenario %q: workload %d endpoints %q->%q not in topology", s.Name, i, w.From, w.To)
		}
		if w.From == w.To {
			return fmt.Errorf("scenario %q: workload %d sends to itself", s.Name, i)
		}
		if router[w.From] || router[w.To] {
			return fmt.Errorf("scenario %q: workload %d terminates at a router", s.Name, i)
		}
		switch w.Kind {
		case "", KindBulk, KindStream, KindUDPRate, KindUDPALF, KindWebMix:
		default:
			return fmt.Errorf("scenario %q: workload %d kind %q unknown", s.Name, i, w.Kind)
		}
		switch w.CC {
		case "", CCCM, CCNative:
		default:
			return fmt.Errorf("scenario %q: workload %d cc %q unknown", s.Name, i, w.CC)
		}
		if udpKind(w.Kind) && w.CC == CCNative {
			return fmt.Errorf("scenario %q: workload %d kind %q is a CM client; cc %q is invalid", s.Name, i, w.Kind, w.CC)
		}
		if w.Rate < 0 {
			return fmt.Errorf("scenario %q: workload %d rate %v negative", s.Name, i, w.Rate)
		}
		for _, f := range [...]struct {
			name string
			v    int
		}{{"flows", w.Flows}, {"bytes", w.Bytes}, {"recv_window", w.RecvWindow}} {
			if f.v < 0 {
				return fmt.Errorf("scenario %q: workload %d %s %d negative", s.Name, i, f.name, f.v)
			}
		}
	}
	// Host-level fault events must name real nodes: a CM to restart or
	// notify-fault must actually exist (CMHosts plus CM-workload sources),
	// and only end hosts move (routers are the infrastructure that stays).
	cmHost := make(map[string]bool)
	for _, h := range s.CMHosts {
		cmHost[h] = true
	}
	for _, w := range s.Workloads {
		if w.CC == CCCM || udpKind(w.Kind) {
			cmHost[w.From] = true
		}
	}
	checkHost := func(what, host string, needsCM bool) error {
		if !nodes[host] {
			return fmt.Errorf("scenario %q: %s host %q not in topology", s.Name, what, host)
		}
		if router[host] {
			return fmt.Errorf("scenario %q: %s host %q is a router", s.Name, what, host)
		}
		if needsCM && !cmHost[host] {
			return fmt.Errorf("scenario %q: %s host %q runs no Congestion Manager", s.Name, what, host)
		}
		return nil
	}
	for i, ev := range s.Events {
		if err := ev.Validate(len(s.Links)); err != nil {
			return fmt.Errorf("scenario %q: event %d: %w", s.Name, i, err)
		}
		if ev.HostEvent() {
			needsCM := ev.Kind == dynamics.CMRestart || ev.Kind == dynamics.SetNotifyFaults
			if err := checkHost(ev.Kind, ev.Host, needsCM); err != nil {
				return fmt.Errorf("event %d: %w", i, err)
			}
		}
	}
	for i, g := range s.Generators {
		if err := g.Validate(len(s.Links)); err != nil {
			return fmt.Errorf("scenario %q: generator %d: %w", s.Name, i, err)
		}
		if g.HostGenerator() {
			if err := checkHost(g.Kind, g.Host, true); err != nil {
				return fmt.Errorf("generator %d: %w", i, err)
			}
		}
	}
	for i, p := range s.Probes {
		t, err := probe.ParseTarget(p.Target)
		if err != nil {
			return fmt.Errorf("scenario %q: probe %d: %w", s.Name, i, err)
		}
		if p.Interval < 0 {
			return fmt.Errorf("scenario %q: probe %d: negative interval %v", s.Name, i, p.Interval)
		}
		switch t.Kind {
		case probe.TargetLink:
			if t.Index >= len(s.Links) {
				return fmt.Errorf("scenario %q: probe %d: link index %d out of range (%d links)", s.Name, i, t.Index, len(s.Links))
			}
		case probe.TargetHost:
			if !nodes[t.Host] {
				return fmt.Errorf("scenario %q: probe %d: host %q not in topology", s.Name, i, t.Host)
			}
		case probe.TargetCM:
			if !cmHost[t.Host] {
				return fmt.Errorf("scenario %q: probe %d: host %q runs no Congestion Manager", s.Name, i, t.Host)
			}
		}
	}
	if s.Duration < 0 {
		return fmt.Errorf("scenario %q: negative duration %v", s.Name, s.Duration)
	}
	if s.TraceDepth < 0 {
		return fmt.Errorf("scenario %q: negative trace depth %d", s.Name, s.TraceDepth)
	}
	if s.SnapshotEvery < 0 {
		return fmt.Errorf("scenario %q: negative snapshot period %v", s.Name, s.SnapshotEvery)
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario %q: negative shard count %d", s.Name, s.Shards)
	}
	switch s.Routing {
	case "", RoutingExact:
		if len(s.HierRoots) > 0 || len(s.Domains) > 0 {
			return fmt.Errorf("scenario %q: hier roots/domains set but routing is %q", s.Name, s.Routing)
		}
	case RoutingHier:
		if len(s.HierRoots) == 0 {
			return fmt.Errorf("scenario %q: hier routing needs at least one root (HierRoots)", s.Name)
		}
		for _, r := range s.HierRoots {
			if !router[r] {
				return fmt.Errorf("scenario %q: hier root %q is not a router", s.Name, r)
			}
		}
		for d := range s.Domains {
			if !router[d] {
				return fmt.Errorf("scenario %q: domain for %q, which is not a router", s.Name, d)
			}
		}
	default:
		return fmt.Errorf("scenario %q: unknown routing mode %q", s.Name, s.Routing)
	}
	switch s.RouteSync {
	case "", RouteSyncOracle:
		// Control-plane faults have no meaning under the oracle.
		for i, ev := range s.Events {
			if ev.Kind == dynamics.SetRouteFaults {
				return fmt.Errorf("scenario %q: event %d: %s requires route_sync %q", s.Name, i, ev.Kind, RouteSyncProtocol)
			}
		}
	case RouteSyncProtocol:
		if s.Routing != RoutingHier && len(nodes) > incrementalRouteLimit {
			return fmt.Errorf("scenario %q: exact-mode protocol routing supports at most %d nodes (%d declared); use hier routing",
				s.Name, incrementalRouteLimit, len(nodes))
		}
	default:
		return fmt.Errorf("scenario %q: unknown route_sync mode %q", s.Name, s.RouteSync)
	}
	return nil
}
