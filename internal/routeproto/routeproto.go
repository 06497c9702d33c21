// Package routeproto is a deterministic distance-vector routing protocol
// layered on the simulator's packet substrate. It replaces the route engine's
// instant-global-BFS "oracle" with honest hop-by-hop convergence: link
// endpoints detect down/up locally, originate withdraw/advertise messages
// that travel as ordinary simulated packets (they queue, drop and cross shard
// barriers like data traffic), and peers update their tables incrementally
// per received message.
//
// The protocol is RIP-shaped: hop-count metrics with a small Infinity,
// split horizon with poisoned reverse, a holddown timer to suppress
// count-to-infinity races, triggered updates with seeded jittered backoff,
// and a periodic full-table refresh as the safety net that also ages out
// routes whose advertiser fell silent (see docs/ROUTING.md).
//
// Everything is driven by a simtime.Scheduler and a seeded rand.Rand, so two
// runs of one spec — serial, parallel or sharded — exchange byte-identical
// message sequences.
package routeproto

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

// Protocol timers and constants, tuned so a fat-tree heals in well under a
// second while the refresh safety net still exercises within short scenario
// runs.
const (
	// DefaultRefreshInterval is the period of the full-table refresh each
	// agent sends to every live neighbor (with a seeded per-agent phase offset
	// so the fleet does not tick in lockstep).
	DefaultRefreshInterval = time.Second
	// DefaultExpireAfter ages out a route whose advertising neighbor has not
	// refreshed it: at least twice the refresh interval, so one lost refresh
	// does not flap the table.
	DefaultExpireAfter = 2500 * time.Millisecond
	// DefaultHolddown is how long, after losing a destination entirely, an
	// agent defers selecting newly appearing routes to it that are no better
	// than the one it lost — the standard suppression of count-to-infinity
	// echoes that split horizon alone cannot catch on loops of three or more
	// routers. Deferred claims are recorded (and re-evaluated when the
	// holddown expires), never discarded: discarding would leave the agent
	// waiting for the claimant's next periodic refresh, turning every
	// holddown into a refresh-length outage and breaking the convergence
	// bound.
	DefaultHolddown = 500 * time.Millisecond
	// DefaultTriggerDelayMin/Max bound the seeded jittered backoff between a
	// table change and the triggered update announcing it; the jitter
	// desynchronises update storms after a shared failure.
	DefaultTriggerDelayMin = 20 * time.Millisecond
	DefaultTriggerDelayMax = 80 * time.Millisecond
	// DefaultInfinity is the unreachable metric (RIP's 16). Paths of
	// Infinity-1 hops or longer are unroutable.
	DefaultInfinity = 16
	// DefaultPort is the UDP-style port routing messages are bound to.
	DefaultPort = 520
)

// inf is DefaultInfinity in the RIB's metric type.
const inf int32 = DefaultInfinity

// Entry advertises one destination at a metric. Metric == Infinity is a
// withdraw.
type Entry struct {
	Dest   string
	Metric int
}

// Message is the payload of one routing packet: the sender's current view of
// a set of destinations. Entries are sorted by destination.
type Message struct {
	From    string
	Entries []Entry
}

// messageOverhead approximates the IP header plus a RIP-style fixed header.
const messageOverhead = 28

// entryOverhead is the per-entry wire cost beyond the destination name:
// metric byte plus framing.
const entryOverhead = 5

// WireSize is the simulated on-the-wire size of the message in bytes, which
// is what link serialisation and queue occupancy charge for it.
func (m *Message) WireSize() int {
	n := messageOverhead
	for i := range m.Entries {
		n += len(m.Entries[i].Dest) + entryOverhead
	}
	return n
}

// Stats are an agent's cumulative protocol counters.
type Stats struct {
	MessagesSent       int
	MessagesReceived   int
	EntriesSent        int
	EntriesReceived    int
	TriggeredUpdates   int
	Refreshes          int
	RouteChanges       int
	HolddownSuppressed int
	FaultDropped       int
	FaultDelayed       int
	FaultDuplicated    int
	UnknownNeighbor    int
}

// Add accumulates other into s (used for fleet-wide reporting).
func (s *Stats) Add(o Stats) {
	s.MessagesSent += o.MessagesSent
	s.MessagesReceived += o.MessagesReceived
	s.EntriesSent += o.EntriesSent
	s.EntriesReceived += o.EntriesReceived
	s.TriggeredUpdates += o.TriggeredUpdates
	s.Refreshes += o.Refreshes
	s.RouteChanges += o.RouteChanges
	s.HolddownSuppressed += o.HolddownSuppressed
	s.FaultDropped += o.FaultDropped
	s.FaultDelayed += o.FaultDelayed
	s.FaultDuplicated += o.FaultDuplicated
	s.UnknownNeighbor += o.UnknownNeighbor
}

// neighbor is one adjacency: the directional link toward the peer and the
// agent's local view of its state, plus the control-plane fault injector
// settings for messages sent on it.
type neighbor struct {
	name string
	out  *netsim.Link
	up   bool
	// full marks the neighbor as owed a full-table update (set when the
	// link comes back up), flushed with the next triggered update.
	full bool

	dropRate  float64
	delayRate float64
	delay     time.Duration
	dupRate   float64
}

// ribEntry is the per-destination routing information base: the last metric
// heard from each neighbor (-1 = none), when it was heard, and the currently
// installed best route.
type ribEntry struct {
	adv     []int32
	heard   []time.Duration
	best    int32
	bestVia int32 // neighbor index, or -1 for self/unreachable
	origin  bool
	// holddown state: until holdUntil, claims with metric >= holdMetric are
	// recorded but not selected; holdArmed marks the pending re-selection
	// timer that fires at holdUntil.
	holdUntil  time.Duration
	holdMetric int32
	holdArmed  bool
}

// InstallFunc applies one converged route decision to the forwarding plane:
// dest is reachable over link at metric, or unreachable when link is nil
// (metric == Infinity). The scenario layer maps it onto exact host routes or
// hierarchical domain routes.
type InstallFunc func(dest string, link *netsim.Link, metric int)

// Agent runs the protocol on one host. Construction order is fixed:
// NewAgent, AddNeighbor for every adjacency, Originate/SeedRoute to warm the
// RIB, then Start. After Start the agent is message-driven.
type Agent struct {
	host    *node.Host
	sched   *simtime.Scheduler
	rng     *rand.Rand
	install InstallFunc

	neighbors []*neighbor
	nbIndex   map[string]int

	rib          map[string]*ribEntry
	dirty        map[string]bool
	pendingFlush bool
	started      bool

	stats Stats
}

// NewAgent creates an idle agent on host. seed derives the agent's private jitter and
// fault-injection stream; install receives every converged route change (nil
// disables installation, for tests).
func NewAgent(host *node.Host, sched *simtime.Scheduler, seed int64, install InstallFunc) *Agent {
	if host == nil || sched == nil {
		panic("routeproto: NewAgent requires a host and scheduler")
	}
	return &Agent{
		host:    host,
		sched:   sched,
		rng:     rand.New(rand.NewSource(seed)),
		install: install,
		nbIndex: make(map[string]int),
		rib:     make(map[string]*ribEntry),
		dirty:   make(map[string]bool),
	}
}

// Name returns the agent's host name.
func (a *Agent) Name() string { return a.host.Name() }

// Stats returns a copy of the agent's counters.
func (a *Agent) Stats() Stats { return a.stats }

// Pending reports whether the agent has a triggered update scheduled but not
// yet sent — the protocol-quiescence probe. Periodic refreshes do not count.
func (a *Agent) Pending() bool { return a.pendingFlush || len(a.dirty) > 0 }

// AddNeighbor registers the adjacency toward name over the directional link
// out, returning the neighbor index used by LinkState/SetFaults. All
// neighbors must be added before any route is seeded.
func (a *Agent) AddNeighbor(name string, out *netsim.Link) int {
	if len(a.rib) > 0 || a.started {
		panic("routeproto: AddNeighbor after routes were seeded")
	}
	if out == nil {
		panic("routeproto: AddNeighbor with nil link")
	}
	if _, ok := a.nbIndex[name]; ok {
		panic(fmt.Sprintf("routeproto: duplicate neighbor %q on %s", name, a.host.Name()))
	}
	j := len(a.neighbors)
	a.neighbors = append(a.neighbors, &neighbor{name: name, out: out, up: true})
	a.nbIndex[name] = j
	return j
}

// SetFaults configures the control-plane fault injector for messages sent to
// neighbor j: each message is independently dropped with probability drop,
// delayed by delay with probability delayRate, and duplicated with
// probability dup. Draws come from the agent's seeded stream.
func (a *Agent) SetFaults(j int, drop, delayRate float64, delay time.Duration, dup float64) {
	nb := a.neighbors[j]
	nb.dropRate, nb.delayRate, nb.delay, nb.dupRate = drop, delayRate, delay, dup
}

func (a *Agent) entry(dest string) *ribEntry {
	e := a.rib[dest]
	if e == nil {
		e = &ribEntry{
			adv:     make([]int32, len(a.neighbors)),
			heard:   make([]time.Duration, len(a.neighbors)),
			best:    inf,
			bestVia: -1,
		}
		for j := range e.adv {
			e.adv[j] = -1
		}
		a.rib[dest] = e
	}
	return e
}

// Originate declares dest as locally attached at metric 0 (a host's own
// name, or a router's covering domain), before Start.
func (a *Agent) Originate(dest string) {
	e := a.entry(dest)
	e.origin = true
	e.best, e.bestVia = 0, -1
}

// SeedRoute warm-starts the RIB before Start: neighbor via advertises dest
// at metric (already including the hop to that neighbor). Metrics at or
// above Infinity are ignored.
func (a *Agent) SeedRoute(dest string, via int, metric int) {
	if metric >= int(inf) {
		return
	}
	e := a.entry(dest)
	if e.origin {
		return
	}
	e.adv[via] = int32(metric)
}

// Start binds the routing port, installs the warm-started table and arms the
// periodic refresh. Installation is silent: a consistently seeded fleet
// starts converged, with nothing to advertise.
func (a *Agent) Start() error {
	if a.started {
		return fmt.Errorf("routeproto: %s already started", a.host.Name())
	}
	if err := a.host.Bind(netsim.ProtoRoute, DefaultPort, node.HandlerFunc(a.handle)); err != nil {
		return err
	}
	for _, dest := range a.sortedRib() {
		e := a.rib[dest]
		if e.origin {
			continue
		}
		bm, bv := a.bestOf(e)
		e.best, e.bestVia = bm, bv
		if bv >= 0 && a.install != nil {
			a.install(dest, a.neighbors[bv].out, int(bm))
		}
	}
	a.started = true
	// Seeded phase offset: agents refresh at the same period but different
	// phases, so the fleet's refresh traffic is spread out.
	phase := time.Duration(a.rng.Int63n(int64(DefaultRefreshInterval)/4 + 1))
	a.sched.Schedule(a.sched.Now()+DefaultRefreshInterval+phase, simtime.KindRouteUpdate, fireRefresh, a)
	return nil
}

// LinkState tells the agent its adjacency j flipped: the local failure
// detector (a dynamics event) saw the attached link go down or come up.
// Down forgets everything learned via j and re-evaluates; up schedules a
// full-table exchange.
func (a *Agent) LinkState(j int, up bool) {
	nb := a.neighbors[j]
	if nb.up == up {
		return
	}
	nb.up = up
	if up {
		nb.full = true
		a.scheduleFlush()
		return
	}
	now := a.sched.Now()
	for dest, e := range a.rib {
		if e.adv[j] < 0 {
			continue
		}
		e.adv[j] = -1
		a.evaluate(dest, e, now)
	}
}

// bestOf scans the RIB entry for the minimum metric over live neighbors;
// ties break to the lowest adjacency index, which every run resolves
// identically.
func (a *Agent) bestOf(e *ribEntry) (int32, int32) {
	if e.origin {
		return 0, -1
	}
	bm, bv := inf, int32(-1)
	for i, nb := range a.neighbors {
		if !nb.up {
			continue
		}
		if c := e.adv[i]; c >= 0 && c < bm {
			bm, bv = c, int32(i)
		}
	}
	return bm, bv
}

// evaluate recomputes the best route for dest, installs a change into the
// forwarding plane and marks it for a triggered update. A transition to
// unreachable arms the holddown timer.
func (a *Agent) evaluate(dest string, e *ribEntry, now time.Duration) {
	bm, bv := a.bestOf(e)
	if bm == e.best && bv == e.bestVia {
		return
	}
	if e.best < inf && bm >= inf {
		e.holdUntil = now + DefaultHolddown
		e.holdMetric = e.best
	}
	e.best, e.bestVia = bm, bv
	a.stats.RouteChanges++
	if a.install != nil {
		var l *netsim.Link
		if bv >= 0 {
			l = a.neighbors[bv].out
		}
		a.install(dest, l, int(bm))
	}
	a.markDirty(dest)
}

// handle is the bound receiver for routing packets.
func (a *Agent) handle(pkt *netsim.Packet) {
	msg, ok := pkt.Payload.(*Message)
	if !ok {
		return
	}
	j, ok := a.nbIndex[msg.From]
	if !ok {
		a.stats.UnknownNeighbor++
		return
	}
	a.stats.MessagesReceived++
	a.stats.EntriesReceived += len(msg.Entries)
	if !a.neighbors[j].up {
		// Our local detector says the link is down; ignore the stale or
		// asymmetric delivery rather than learning over a dead adjacency.
		return
	}
	now := a.sched.Now()
	for i := range msg.Entries {
		a.learn(j, msg.Entries[i].Dest, msg.Entries[i].Metric, now)
	}
}

// learn processes one advertised (dest, metric) from neighbor j.
func (a *Agent) learn(j int, dest string, metric int, now time.Duration) {
	if metric < 0 {
		return
	}
	cost := int32(metric) + 1
	if cost > inf {
		cost = inf
	}
	e := a.rib[dest]
	if e == nil {
		if cost >= inf {
			return // a withdraw for something we never knew
		}
		e = a.entry(dest)
	}
	if e.origin {
		return
	}
	if cost < inf && now < e.holdUntil && cost >= e.holdMetric {
		// Holddown: a claim no better than the route we just lost — likely
		// our own reachability echoing back around a loop. Record it but
		// defer the selection to the holddown's expiry: the information is
		// kept, so recovery costs at most the holddown itself, never a wait
		// for the claimant's next periodic refresh.
		if e.adv[j] != cost {
			a.stats.HolddownSuppressed++
		}
		e.adv[j] = cost
		e.heard[j] = now
		a.armHold(dest, e)
		return
	}
	if cost >= inf {
		if e.adv[j] < 0 {
			return
		}
		e.adv[j] = -1
	} else {
		e.adv[j] = cost
		e.heard[j] = now
	}
	a.evaluate(dest, e, now)
}

// armHold schedules the deferred re-selection at the entry's holddown
// expiry. One timer per entry at a time; if the holddown re-arms while the
// timer is in flight, holdExpired reschedules for the remainder.
func (a *Agent) armHold(dest string, e *ribEntry) {
	if e.holdArmed {
		return
	}
	e.holdArmed = true
	a.sched.Schedule(e.holdUntil, simtime.KindRouteUpdate, func(any) { a.holdExpired(dest) }, nil)
}

// holdExpired re-evaluates a destination whose holddown window closed, so
// claims recorded during the window take effect without waiting for the next
// message to arrive.
func (a *Agent) holdExpired(dest string) {
	e := a.rib[dest]
	if e == nil {
		return
	}
	e.holdArmed = false
	now := a.sched.Now()
	if now < e.holdUntil {
		a.armHold(dest, e)
		return
	}
	a.evaluate(dest, e, now)
}

// markDirty queues dest for the next triggered update.
func (a *Agent) markDirty(dest string) {
	if !a.started {
		return
	}
	a.dirty[dest] = true
	a.scheduleFlush()
}

// scheduleFlush arms one triggered update after the seeded jittered backoff.
// Changes arriving while the flush is pending batch into it.
func (a *Agent) scheduleFlush() {
	if !a.started || a.pendingFlush {
		return
	}
	a.pendingFlush = true
	d := DefaultTriggerDelayMin
	if span := DefaultTriggerDelayMax - DefaultTriggerDelayMin; span > 0 {
		d += time.Duration(a.rng.Int63n(int64(span) + 1))
	}
	a.sched.Schedule(a.sched.Now()+d, simtime.KindRouteUpdate, fireFlush, a)
}

func fireFlush(a any) { a.(*Agent).flush() }

// flush sends the pending triggered update: changed destinations to every
// live neighbor, or the full table to neighbors owed one after a link-up.
func (a *Agent) flush() {
	a.pendingFlush = false
	var dests []string
	if len(a.dirty) > 0 {
		dests = make([]string, 0, len(a.dirty))
		for d := range a.dirty {
			dests = append(dests, d)
		}
		sort.Strings(dests)
	}
	var full []string
	sent := false
	for j, nb := range a.neighbors {
		if !nb.up {
			continue
		}
		if nb.full {
			nb.full = false
			if full == nil {
				full = a.sortedRib()
			}
			sent = a.sendTo(j, full) || sent
		} else if len(dests) > 0 {
			sent = a.sendTo(j, dests) || sent
		}
	}
	clear(a.dirty)
	if sent {
		a.stats.TriggeredUpdates++
	}
}

func fireRefresh(a any) { a.(*Agent).refreshTick() }

// refreshTick is the periodic safety net: age out silent routes,
// garbage-collect fully dead entries, and re-advertise the whole table to
// every live neighbor. A route the neighbor itself originates (cost 1: the
// neighbor's own name, or the domain it covers) is a connected route, as in
// RIP: it lasts as long as the link, which LinkState withdraws, and does not
// age, so refreshes lost on a lossy link that is up cannot take it away.
func (a *Agent) refreshTick() {
	now := a.sched.Now()
	a.stats.Refreshes++
	for dest, e := range a.rib {
		if e.origin {
			continue
		}
		changed := false
		for j := range e.adv {
			if e.adv[j] > 1 && now-e.heard[j] > DefaultExpireAfter {
				e.adv[j] = -1
				changed = true
			}
		}
		if changed {
			a.evaluate(dest, e, now)
		}
		if e.best >= inf && !a.dirty[dest] && now >= e.holdUntil && allUnheard(e.adv) {
			delete(a.rib, dest)
		}
	}
	full := a.sortedRib()
	for j, nb := range a.neighbors {
		if nb.up {
			a.sendTo(j, full)
		}
	}
	a.sched.Schedule(a.sched.Now()+DefaultRefreshInterval, simtime.KindRouteUpdate, fireRefresh, a)
}

func allUnheard(adv []int32) bool {
	for _, c := range adv {
		if c >= 0 {
			return false
		}
	}
	return true
}

// sendTo builds and transmits one message for the given destinations to
// neighbor j, applying split horizon with poisoned reverse and the
// per-neighbor fault injector. It reports whether a message was composed
// (even if the injector then dropped it — the work was triggered).
func (a *Agent) sendTo(j int, dests []string) bool {
	nb := a.neighbors[j]
	entries := make([]Entry, 0, len(dests))
	for _, d := range dests {
		e := a.rib[d]
		if e == nil {
			continue
		}
		m := int(e.best)
		if e.bestVia == int32(j) {
			// Poisoned reverse: routes via this neighbor advertise as
			// unreachable to it, killing two-node loops outright.
			m = int(inf)
		}
		entries = append(entries, Entry{Dest: d, Metric: m})
	}
	if len(entries) == 0 {
		return false
	}
	a.stats.MessagesSent++
	a.stats.EntriesSent += len(entries)
	if nb.dropRate > 0 && a.rng.Float64() < nb.dropRate {
		a.stats.FaultDropped++
		return true
	}
	var delay time.Duration
	if nb.delayRate > 0 && a.rng.Float64() < nb.delayRate {
		delay = nb.delay
		a.stats.FaultDelayed++
	}
	copies := 1
	if nb.dupRate > 0 && a.rng.Float64() < nb.dupRate {
		copies = 2
		a.stats.FaultDuplicated++
	}
	msg := &Message{From: a.host.Name(), Entries: entries}
	size := msg.WireSize()
	src := netsim.Addr{Host: msg.From, Port: DefaultPort}
	dst := netsim.Addr{Host: nb.name, Port: DefaultPort}
	send := func(any) {
		for c := 0; c < copies; c++ {
			pkt := netsim.NewPacket()
			pkt.Proto = netsim.ProtoRoute
			pkt.Src = src
			pkt.Dst = dst
			pkt.Size = size
			pkt.Payload = msg
			pkt.Control = true
			pkt.TTL = 2
			nb.out.Send(pkt)
		}
	}
	if delay > 0 {
		a.sched.Schedule(a.sched.Now()+delay, simtime.KindRouteUpdate, send, nil)
	} else {
		send(nil)
	}
	return true
}

// Route reports the agent's converged metric for dest (for tests and
// audits): ok is false when dest is unknown or unreachable.
func (a *Agent) Route(dest string) (metric int, via string, ok bool) {
	e := a.rib[dest]
	if e == nil || e.best >= inf {
		return 0, "", false
	}
	if e.bestVia >= 0 {
		via = a.neighbors[e.bestVia].name
	}
	return int(e.best), via, true
}

func (a *Agent) sortedRib() []string {
	keys := make([]string, 0, len(a.rib))
	for d := range a.rib {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	return keys
}
