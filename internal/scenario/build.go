package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cm"
	"repro/internal/dynamics"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/simtime"
)

// Sim is a built scenario: the wired topology, its executor and the
// Congestion Managers, ready to run. Experiments that need programmatic
// workloads (custom applications, taps, ablations) use Build directly, attach
// them to a host's Clock and advance the run with RunUntil; declarative
// workloads go through Run (or Start + RunUntil/RunToEnd + Finish).
type Sim struct {
	Spec Spec
	net  *node.Network
	// nodeNames is every node in deterministic (first-mention) order.
	nodeNames []string
	// duplexes[i] realises Spec.Links[i].
	duplexes []*netsim.Duplex
	cms      map[string]*cm.CM
	cmHosts  []string // deterministic order of cms keys
	// injectors holds one notification fault injector per CM host (shared by
	// every libcm instance of that host), driven by set-notify-faults events.
	injectors map[string]*libcm.Injector

	// routing is the interned-topology route engine, retained after Build so
	// dynamics events can recompute routes when links fail or recover.
	routing *routeEngine
	// proto is the distance-vector control plane layered on the engine when
	// Spec.RouteSync == RouteSyncProtocol, nil in (default) oracle mode.
	proto *protoPlane
	// events holds one execution record per Spec.Events entry, in
	// declaration order; fireEvents fires them.
	events []dynamics.Record

	// shard is the executor: one shard for a serial build (Spec.Shards <= 1,
	// a degenerate partition, or zero lookahead), K for a sharded one. Every
	// component is bound to its shard's scheduler.
	shard *shardRun

	// drivers track the declarative workloads once Start has run.
	drivers []*flowDriver
	started bool

	// series are the Spec.Probes series, filled at barriers by the probes
	// Start schedules; recorders the per-host flight-recorder rings (nil
	// unless Spec.TraceDepth > 0); snaps the mid-run snapshots accumulated
	// when Spec.SnapshotEvery > 0; execTL the wall-clock execution timeline
	// attached by EnableExecutionTimeline. See probes.go.
	series    []*probe.Series
	recorders map[string]*probe.Recorder
	snaps     []Snapshot
	execTL    *probe.Timeline
	// profiled records that EnableProfiling armed the per-event-kind
	// profiler(s); Finish then attaches the Result.Perf block.
	profiled bool
}

// Build validates the spec, creates the hosts, routers and links, computes
// shortest-path routes between every pair of nodes, installs Congestion
// Managers on the CM hosts and schedules the spec's dynamics events.
func Build(spec Spec) (*Sim, error) {
	spec.fillDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Stochastic generators expand into ordinary deterministic events before
	// anything looks at them: the barrier schedule and the execution records
	// both see one merged, time-sorted event list.
	if len(spec.Generators) > 0 {
		evs, err := expandGenerators(&spec)
		if err != nil {
			return nil, err
		}
		spec.Events = evs
	}
	// Every host-move implies a later re-attach; splitting the pair out here
	// makes both halves visible to the shard planner's barrier schedule and
	// the execution record, like any other event.
	spec.Events = expandHostMoves(spec.Events)
	sim := &Sim{Spec: spec, cms: make(map[string]*cm.CM)}

	// Node order is the first mention in Links; it is needed up front because
	// a sharded build must know every host's shard before creating it. id is
	// the interning the route engine's adjacency is built on.
	id := make(map[string]int, len(spec.Links)+1)
	addNode := func(name string) {
		if _, seen := id[name]; !seen {
			id[name] = len(sim.nodeNames)
			sim.nodeNames = append(sim.nodeNames, name)
		}
	}
	for _, ls := range spec.Links {
		addNode(ls.A)
		addNode(ls.B)
	}

	// Sharded execution needs at least two shards after partitioning and a
	// positive lookahead (a zero-delay cross-shard link admits no safe
	// concurrent window); anything else runs as one shard, whose plan maps
	// every host to shard 0 and sets no lookahead limit.
	plan := shardPlan{nshards: 1}
	if spec.Shards > 1 {
		if p := planShards(&spec, sim.nodeNames); p.nshards > 1 && p.lookahead > 0 {
			plan = p
		}
	}
	sim.shard = newShardRun(plan)
	sharded := plan.nshards > 1
	nw := node.NewShardedNetwork(sim.clockFor)
	sim.net = nw
	// The spec says how many hosts and links there will be and how long the
	// link names are, so each kind comes from one allocation.
	nameBytes := 0
	for _, ls := range spec.Links {
		nameBytes += node.LinkNameBytes(ls.A, ls.B, ls.Name)
	}
	nw.Reserve(len(sim.nodeNames), len(spec.Links), nameBytes)
	sim.duplexes = make([]*netsim.Duplex, 0, len(spec.Links))
	for _, r := range spec.Routers {
		nw.Router(r)
	}
	// Directional edges accumulate in insertion order for the route engine's
	// interned adjacency. Parallel links between a pair would make next-hop
	// routing ambiguous, so duplicates are rejected.
	edges := make([]dirEdge, 0, 2*len(spec.Links))
	wired := make(map[[2]int32]bool, 2*len(spec.Links))
	direction := func(from, to string, l *netsim.Link) error {
		f, t := int32(id[from]), int32(id[to])
		if wired[[2]int32{f, t}] {
			return fmt.Errorf("scenario %q: duplicate link %s-%s", spec.Name, from, to)
		}
		wired[[2]int32{f, t}] = true
		edges = append(edges, dirEdge{from: f, to: t, link: l})
		return nil
	}
	// Links with Seed zero get derived seeds. Each duplex consumes two seeds
	// (NewDuplex uses Seed and Seed+1); derived pairs count up from the spec
	// seed and skip over any seed an explicitly seeded link claimed, so no two
	// links ever share a random stream.
	var claimed map[int64]bool
	for _, ls := range spec.Links {
		if ls.Seed != 0 {
			if claimed == nil {
				claimed = make(map[int64]bool)
			}
			claimed[ls.Seed] = true
			claimed[ls.Seed+1] = true
		}
	}
	nextSeed := spec.Seed
	deriveSeed := func() int64 {
		for claimed[nextSeed] || claimed[nextSeed+1] {
			nextSeed++
		}
		s := nextSeed
		nextSeed += 2
		return s
	}
	for _, ls := range spec.Links {
		cfg := ls.LinkConfig
		if cfg.Seed == 0 {
			cfg.Seed = deriveSeed()
		}
		// No routes here: the route engine installs every table below.
		d := nw.Link(ls.A, ls.B, cfg)
		sim.duplexes = append(sim.duplexes, d)
		if err := direction(ls.A, ls.B, d.Forward); err != nil {
			return nil, err
		}
		if err := direction(ls.B, ls.A, d.Reverse); err != nil {
			return nil, err
		}
		if sa, sb := plan.shardOf[ls.A], plan.shardOf[ls.B]; sa != sb {
			sim.shard.connectRemote(d.Forward, sa, sb)
			sim.shard.connectRemote(d.Reverse, sb, sa)
		}
	}
	// Ownership checks guard cross-shard drives; one shard has none to catch.
	if sharded {
		for _, name := range sim.nodeNames {
			nw.Host(name).SetOwnershipCheck(sim.shard.ownerCheck(plan.shardOf[name]))
		}
	}

	hosts := make([]*node.Host, len(sim.nodeNames))
	for i, name := range sim.nodeNames {
		hosts[i] = nw.Host(name)
	}
	eng, err := newRouteEngine(&sim.Spec, nw, sim.nodeNames, id, hosts, edges)
	if err != nil {
		return nil, err
	}
	sim.routing = eng
	if spec.routeProtocol() {
		sim.proto = newProtoPlane(sim)
	}
	sim.recomputeRoutes()

	cmHosts := append([]string(nil), spec.CMHosts...)
	for _, w := range spec.Workloads {
		if w.CC == CCCM {
			cmHosts = append(cmHosts, w.From)
		}
	}
	sort.Strings(cmHosts)
	for _, h := range cmHosts {
		if _, ok := sim.cms[h]; ok {
			continue
		}
		hostSched := sim.clockFor(h)
		c := cm.New(hostSched, hostSched, spec.CMOpts...)
		sim.cms[h] = c
		sim.cmHosts = append(sim.cmHosts, h)
		nw.Host(h).SetTransmitNotifier(c)
		if sharded {
			c.SetOwnershipCheck(sim.shard.ownerCheck(plan.shardOf[h]))
		}
	}
	// One fault injector per CM host, seeded from the spec seed and the
	// host's position in the sorted CM-host list (the 0x5eed offset keeps the
	// stream disjoint from the generator and web-mix sub-streams).
	sim.injectors = make(map[string]*libcm.Injector)
	for i, h := range sim.cmHosts {
		sim.injectors[h] = libcm.NewInjector(spec.Seed + int64(i+1)*subSeedStride + 0x5eed)
	}

	// The flight recorder attaches before the dynamics events so even
	// time-zero events are captured.
	sim.installTrace()

	// The dynamics events come last so the time-zero ones (static
	// asymmetries and initial loss modes) see the fully wired topology; the
	// positive-time events fire at barriers, through one barrier action
	// (observers.go). An event after Duration is flagged past_end and never
	// fires.
	if len(spec.Events) > 0 {
		sim.events = make([]dynamics.Record, len(spec.Events))
		for i, ev := range spec.Events {
			sim.events[i] = dynamics.Record{Event: ev, PastEnd: ev.At > spec.Duration}
		}
		sim.shard.schedule(barrierAction{at: sim.fireEvents(0), rank: rankDynamics, fire: sim.fireEvents})
	}
	return sim, nil
}

// fireEvents is the dynamics barrier action: it fires every event due at or
// before at, in declaration order, and returns the instant of the next one
// (declared events need not be in time order), or never.
func (s *Sim) fireEvents(at time.Duration) time.Duration {
	next := never
	for i := range s.events {
		r := &s.events[i]
		switch {
		case r.Fired || r.PastEnd:
		case r.At <= at:
			s.fireEvent(r)
		case r.At < next:
			next = r.At
		}
	}
	return next
}

// fireEvent applies one event and records its outcome: a host event through
// applyHostEvent, set-route-faults on the control plane (a no-op in oracle
// mode, which has none), and a link event on its link directions, with
// routes recomputed after link-down and link-up.
func (s *Sim) fireEvent(r *dynamics.Record) {
	r.Fired = true
	switch {
	case r.HostEvent():
		r.RoutesChanged, r.FlowsWiped = s.applyHostEvent(r.Event)
	case r.Kind == dynamics.SetRouteFaults:
		if s.proto != nil {
			s.proto.applyRouteFaults(r.Event)
		}
	default:
		for _, l := range s.eventLinks(r.Event) {
			r.Apply(l)
		}
		if r.Kind == dynamics.LinkDown || r.Kind == dynamics.LinkUp {
			r.RoutesChanged = s.recomputeRoutes()
			s.recordRouteEvent(r.Event, r.RoutesChanged)
		}
	}
}

// expandHostMoves splits every host-move into its two observable halves: the
// detach at At (links down, routes withdrawn, macroflow state discarded) and
// a host-attach at At+Outage when the host reappears. Both are ordinary
// events, so the sharded runner's barrier schedule and the execution record
// see them like any other. The input slice is returned untouched when there
// is nothing to expand.
func expandHostMoves(events []dynamics.Event) []dynamics.Event {
	hasMove := false
	for _, ev := range events {
		if ev.Kind == dynamics.HostMove {
			hasMove = true
			break
		}
	}
	if !hasMove {
		return events
	}
	out := append([]dynamics.Event(nil), events...)
	var attaches []dynamics.Event
	for i := range out {
		ev := &out[i]
		if ev.Kind != dynamics.HostMove {
			continue
		}
		if ev.Outage <= 0 {
			ev.Outage = 200 * time.Millisecond
		}
		attaches = append(attaches, dynamics.Event{At: ev.At + ev.Outage, Kind: dynamics.HostAttach, Host: ev.Host})
	}
	out = append(out, attaches...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// recordRouteEvent notes a fired link-dynamics event — and the routing churn
// it caused — in the flight recorders of the affected link's endpoints. It
// runs in single-threaded phases (build, barriers), so writing both rings
// here is race-free.
func (s *Sim) recordRouteEvent(ev dynamics.Event, changed int) {
	if s.recorders == nil || ev.Link < 0 || ev.Link >= len(s.Spec.Links) {
		return
	}
	ls := s.Spec.Links[ev.Link]
	e := probe.Event{At: s.now(), Kind: probe.EvRoute, Size: int64(changed), Note: ev.Kind}
	s.recordHostEvent(ls.A, e)
	s.recordHostEvent(ls.B, e)
}

// applyHostEvent realises a host-level fault event against the built
// topology and CMs, returning the routing entries it changed and the CM flows
// it discarded.
func (s *Sim) applyHostEvent(ev dynamics.Event) (routesChanged, flowsWiped int) {
	s.recordHostEvent(ev.Host, probe.Event{At: s.now(), Kind: probe.EvFault, Note: ev.Kind})
	switch ev.Kind {
	case dynamics.CMRestart:
		if c := s.cms[ev.Host]; c != nil {
			flowsWiped = c.Restart()
		}
	case dynamics.SetNotifyFaults:
		if inj := s.injectors[ev.Host]; inj != nil {
			inj.SetRates(ev.DropRate, ev.DelayRate, ev.Delay)
		}
	case dynamics.HostMove:
		// The host leaves its attachment point: every adjacent link goes
		// down, routes recompute, and in-flight packets toward it die as
		// route misses. Congestion state about the host is discarded — on
		// the moving host's own CM (its path knowledge is stale) and on
		// every peer CM aggregating flows toward it.
		s.setHostLinks(ev.Host, true)
		routesChanged = s.recomputeRoutes()
		if c := s.cms[ev.Host]; c != nil {
			flowsWiped += c.ResetAllMacroflows()
		}
		for _, h := range s.cmHosts {
			if h == ev.Host {
				continue
			}
			flowsWiped += s.cms[h].ResetMacroflows(ev.Host)
		}
	case dynamics.HostAttach:
		s.setHostLinks(ev.Host, false)
		routesChanged = s.recomputeRoutes()
	}
	return routesChanged, flowsWiped
}

// setHostLinks takes every link adjacent to host down (or back up).
func (s *Sim) setHostLinks(host string, down bool) {
	for i, ls := range s.Spec.Links {
		if ls.A == host || ls.B == host {
			s.duplexes[i].Forward.SetDown(down)
			s.duplexes[i].Reverse.SetDown(down)
		}
	}
}

// expandGenerators merges the spec's declared events with the expansion of
// every generator, filling owner-level defaults first: a zero generator seed
// derives from the spec seed and the generator's position, and End defaults
// to the run duration. The merged list is stably sorted by time so
// declaration order equals firing order, and re-validated, since expansion
// happens after Spec.Validate.
func expandGenerators(spec *Spec) ([]dynamics.Event, error) {
	combined := append([]dynamics.Event(nil), spec.Events...)
	for i, g := range spec.Generators {
		if g.Seed == 0 {
			g.Seed = spec.Seed + int64(i+1)*subSeedStride
		}
		if g.End <= 0 || g.End > spec.Duration {
			g.End = spec.Duration
		}
		combined = append(combined, g.Expand()...)
	}
	sort.SliceStable(combined, func(i, j int) bool { return combined[i].At < combined[j].At })
	for i, ev := range combined {
		if err := ev.Validate(len(spec.Links)); err != nil {
			return nil, fmt.Errorf("scenario %q: expanded event %d: %w", spec.Name, i, err)
		}
	}
	return combined, nil
}

// subSeedStride spaces the derived sub-seeds of a spec's stochastic
// consumers (generators, web-mix plans) along the seed line. It is chosen
// coprime to — and far larger than — the sweep engine's per-point stride
// (1e6-ish), so sub-stream k of sweep point p can never alias sub-stream
// k-1 of point p+1: adjacent sweep points draw fully independent churn.
const subSeedStride = 2_654_435_761 // 2^32 / golden ratio, odd

// clockFor returns the scheduler of the shard owning the named host (a
// serial build's plan has no shardOf map, so every host reads shard 0).
func (s *Sim) clockFor(host string) *simtime.Scheduler {
	return s.shard.states[s.shard.plan.shardOf[host]].sched
}

// now returns the current virtual time. All shard clocks agree outside
// windows (the coordinator advances them in lockstep), so the first shard
// speaks for the run.
func (s *Sim) now() time.Duration { return s.shard.states[0].sched.Now() }

// Sharded reports whether the build runs on more than one shard; ShardCount
// and Lookahead describe the partition (1 and 0 for a serial build), and
// ShardOf returns the shard owning a host (0 for a serial build).
func (s *Sim) Sharded() bool { return s.shard.plan.nshards > 1 }

// ShardCount returns the number of shards executing the simulation.
func (s *Sim) ShardCount() int { return s.shard.plan.nshards }

// Lookahead returns the conservative synchronization window of a sharded
// build, zero for a serial one.
func (s *Sim) Lookahead() time.Duration { return s.shard.plan.lookahead }

// ShardOf returns the shard index owning the named host.
func (s *Sim) ShardOf(host string) int { return s.shard.plan.shardOf[host] }

// eventLinks maps a link event's (link index, direction) onto the built
// link directions it changes.
func (s *Sim) eventLinks(ev dynamics.Event) []*netsim.Link {
	d := s.duplexes[ev.Link]
	switch ev.Direction {
	case dynamics.DirForward:
		return []*netsim.Link{d.Forward}
	case dynamics.DirReverse:
		return []*netsim.Link{d.Reverse}
	default:
		return []*netsim.Link{d.Forward, d.Reverse}
	}
}

// MustBuild is Build for specs known statically correct (canned builders).
func MustBuild(spec Spec) *Sim {
	sim, err := Build(spec)
	if err != nil {
		panic(err)
	}
	return sim
}

// recomputeRoutes rebuilds routing around the current link up/down state and
// installs the new tables atomically, returning the total number of changed
// entries. Build uses it for the initial installation; fireEvent calls it on
// link up/down, where packets already in flight toward a
// withdrawn route are dropped at the next hop and counted as route-miss (or
// no-route) drops. After the initial installation the route engine rebuilds
// only when a link flipped — every table in exact mode, the flipped links'
// transmitting endpoints in hier mode — and counts only the entries that
// changed.
//
// In protocol mode the global oracle is replaced by local failure handling:
// only the flipped links' endpoints react synchronously, and the rest of the
// repair propagates through the simulated network as routing messages.
func (s *Sim) recomputeRoutes() int {
	if s.proto != nil {
		return s.proto.topologyChanged()
	}
	return s.routing.recompute()
}

// Network returns the wired topology.
func (s *Sim) Network() *node.Network { return s.net }

// Host returns the named host.
func (s *Sim) Host(name string) *node.Host { return s.net.Host(name) }

// CM returns the Congestion Manager installed on the named host, or nil.
func (s *Sim) CM(host string) *cm.CM { return s.cms[host] }

// Duplex returns the duplex realising Spec.Links[i].
func (s *Sim) Duplex(i int) *netsim.Duplex { return s.duplexes[i] }

// Nodes returns every node name in deterministic order.
func (s *Sim) Nodes() []string { return append([]string(nil), s.nodeNames...) }
