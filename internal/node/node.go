// Package node models end hosts and their IP layer. A Host demultiplexes
// received packets to bound transport endpoints and, on the send side,
// implements the paper's modified IP output routine: every transmitted packet
// is handed to the Congestion Manager through a TransmitNotifier so the CM
// can charge the bytes to the right macroflow (cm_notify, paper §2.1.3). The
// CM finds the flow by the handle its transport stamped on the packet, or by
// the packet's flow key when it carries none.
package node

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// TransmitNotifier is the hook the IP output routine calls on every
// transmission, with the packet and the bytes to charge. The Congestion
// Manager implements it; hosts without a CM run with a nil notifier (the
// baseline TCP/Linux configuration).
type TransmitNotifier interface {
	NotifyPacket(pkt *netsim.Packet, nbytes int)
}

// Handler consumes packets demultiplexed to a bound endpoint. The packet and
// its payload are valid only until Handle returns (see Host.Receive).
type Handler interface {
	Handle(pkt *netsim.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *netsim.Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(pkt *netsim.Packet) { f(pkt) }

// bindingKey identifies a binding: a wildcard listener has remote 0 and
// remotePort 0, a connected binding the remote host's id and port. It holds
// no string and no padding, so a lookup hashes 24 bytes in one go.
type bindingKey struct {
	localPort  int
	remotePort int
	remote     int32
	proto      int32
}

// HostStats are cumulative counters for a host's IP layer.
type HostStats struct {
	SentPackets     int
	SentBytes       int64
	ReceivedPackets int
	ReceivedBytes   int64
	// ForwardedPackets / ForwardedBytes count transit packets relayed by a
	// forwarding-enabled host (a router). Forwarded traffic is not included
	// in the Sent/Received counters, which cover locally terminated flows.
	ForwardedPackets int
	ForwardedBytes   int64
	NoRouteDrops     int
	// RouteMissDrops counts transit packets that arrived at a host that does
	// not forward at all — a leaf that received traffic addressed elsewhere
	// (stale routes after a topology change, or a moved host's old address).
	RouteMissDrops int
	// ForwardMissDrops counts transit packets discarded by a forwarding
	// router whose table had no entry (and no default route) for the
	// destination. Interior-router misses point at the routing computation;
	// leaf drops (RouteMissDrops) point at stale senders — the two failure
	// modes are diagnosed differently, so they are counted apart.
	ForwardMissDrops int
	// TTLExpiredDrops counts transit packets discarded because their hop
	// budget reached zero, the symptom of a routing loop.
	TTLExpiredDrops  int
	NoListenerDrops  int
	LastReceived     time.Duration
	NotifierUpcalled int
}

// RouteDrops sums the four routing-failure drop counters: the blackhole
// signal the convergence invariant watches.
func (s HostStats) RouteDrops() int {
	return s.NoRouteDrops + s.RouteMissDrops + s.ForwardMissDrops + s.TTLExpiredDrops
}

// Host is a simulated end system with an IP layer, a routing table keyed by
// destination host, and transport-endpoint demultiplexing. A Host with
// forwarding enabled doubles as a router: packets arriving for other
// destinations are relayed hop-by-hop through the routing table.
//
// The host has an id in its address table (see addr.go), and its routes and
// bindings are keyed by ids. The route tables and the bindings are made by
// their first insert: most hosts of an internet-scale topology are leaves that
// reach everything over the default route and never bind a port.
type Host struct {
	name       string
	id         int32
	forwarding bool
	addrs      *addrTable
	sched      *simtime.Scheduler
	// tables holds the exact routes and the domains: name-suffix routes for
	// whole subtrees. A packet for "h3.e1.p2" with no exact route matches the
	// longest dotted suffix present ("e1.p2", then "p2"); hierarchical routing
	// uses it to give interior routers O(children) tables instead of O(V).
	// nil until the first route.
	tables   *routeTables
	def      *netsim.Link
	bindings *bindingTable
	notifier TransmitNotifier
	stats    HostStats
	nextPort int
	// owned, when non-nil, must report true whenever host code runs. Sharded
	// execution installs a check tied to the host's shard's execution phase
	// so that a packet delivered outside the shard protocol (while the
	// owning shard is quiescent and no coordinator phase is active) panics
	// instead of corrupting state; serial runs leave it nil (one branch).
	owned func() bool
}

// NewHost creates a host with the given name attached to the scheduler. It
// has an address table of its own, so it exchanges packets with no other
// host; hosts that talk to each other come from one Network.
func NewHost(name string, sched *simtime.Scheduler) *Host {
	addrs := new(addrTable)
	return addrs.newHost(addrs.intern(name), name, sched, new(Host))
}

// newHost builds h in place as the host called name, entered in t under id,
// the name's. A Network passes an element of its slab.
func (t *addrTable) newHost(id int32, name string, sched *simtime.Scheduler, h *Host) *Host {
	if sched == nil {
		panic("node: NewHost requires a scheduler")
	}
	if name == "" {
		panic("node: NewHost requires a name")
	}
	*h = Host{name: name, id: id, addrs: t, sched: sched, nextPort: 10000}
	t.hosts[id] = h
	return h
}

// Name returns the host name (its "IP address" in the simulation).
func (h *Host) Name() string { return h.name }

// ID returns the host's id in its address table.
func (h *Host) ID() int32 { return h.id }

// Resolve returns the id the host's address table gives name, 0 when it
// gives none. A transport resolves its peer once per connection and stamps
// the id on its packets (netsim.Packet.SetIDs).
func (h *Host) Resolve(name string) int32 { return h.addrs.lookup(name) }

// Clock returns the host's scheduler: its clock, and where everything on the
// host schedules its events and timers.
func (h *Host) Clock() *simtime.Scheduler { return h.sched }

// Stats returns a copy of the host's IP-layer counters.
func (h *Host) Stats() HostStats { return h.stats }

// SetTransmitNotifier installs the CM hook called from the IP output routine.
func (h *Host) SetTransmitNotifier(n TransmitNotifier) { h.notifier = n }

// SetOwnershipCheck installs a predicate asserting that the calling goroutine
// may run this host's code (true = allowed). Sharded execution uses it to pin
// each host to its shard; nil (the default) disables the check.
func (h *Host) SetOwnershipCheck(fn func() bool) { h.owned = fn }

// assertOwned panics if the host is being driven outside its owning shard.
func (h *Host) assertOwned() {
	if h.owned != nil && !h.owned() {
		panic(fmt.Sprintf("node: host %q driven outside its owning shard", h.name))
	}
}

// EnableForwarding turns the host into a router: packets received for other
// destinations are relayed through the routing table instead of dropped.
func (h *Host) EnableForwarding() { h.forwarding = true }

// Forwarding reports whether the host relays transit packets.
func (h *Host) Forwarding() bool { return h.forwarding }

// routeTables returns the host's tables, making them on first use.
func (h *Host) routeTables() *routeTables {
	if h.tables == nil {
		h.tables = new(routeTables)
	}
	return h.tables
}

// AddRoute routes packets destined to dstHost over link.
func (h *Host) AddRoute(dstHost string, link *netsim.Link) {
	if link == nil {
		panic("node: AddRoute with nil link")
	}
	h.routeTables().exact.set(h.addrs.intern(dstHost), link)
}

// SetDefaultRoute sets the link used for destinations with no explicit route.
func (h *Host) SetDefaultRoute(link *netsim.Link) { h.def = link }

// InstallRoutes atomically replaces the host's exact routing table with
// routes (the default route is untouched). Packets forwarded after the call
// use only the new table — there is no partially updated state, which is what
// lets the dynamics subsystem recompute routes mid-run while packets are in
// flight. It returns the number of table entries that changed (added, removed
// or repointed), the per-host measure of a routing event's blast radius. The
// zero RouteTable installs the empty table. The host keeps routes.Links: the
// caller must not reuse it.
func (h *Host) InstallRoutes(routes RouteTable) int {
	if h.tables == nil && len(routes.Links) == 0 {
		return 0
	}
	return swap(&h.routeTables().exact, routes)
}

// setEntry points name's entry in t at link, a reject entry for nil,
// reporting whether the table changed.
func (h *Host) setEntry(t *RouteTable, name string, link *netsim.Link) bool {
	if link == nil {
		link = reject
	}
	id := h.addrs.intern(name)
	if t.get(id) == link {
		return false
	}
	t.set(id, link)
	return true
}

// SetRoute points the route to dstHost at link, reporting whether the table
// changed. Unlike AddRoute, a nil link is legal and installs a reject entry:
// the exact match wins the RouteTo lookup and returns nil, so packets for
// dstHost are dropped instead of falling through to a domain or default
// route. The routing control plane (internal/routeproto) uses SetRoute for
// its incremental per-message table updates.
func (h *Host) SetRoute(dstHost string, link *netsim.Link) bool {
	return h.setEntry(&h.routeTables().exact, dstHost, link)
}

// RemoveRoute deletes the explicit route (or reject entry) for dstHost,
// reporting whether an entry was removed. Lookups for dstHost fall through to
// the domain table and default route again.
func (h *Host) RemoveRoute(dstHost string) bool {
	return h.tables != nil && h.tables.exact.remove(h.addrs.lookup(dstHost))
}

// SetDomainRoute points the name-suffix route for domain at link, reporting
// whether the table changed. A nil link installs a reject entry: packets
// matching the suffix (and nothing more specific) are dropped rather than
// following a shorter suffix or the default route — hierarchical routers use
// it to blackhole their own subtree's dead destinations instead of bouncing
// them back up.
func (h *Host) SetDomainRoute(domain string, link *netsim.Link) bool {
	return h.setEntry(&h.routeTables().domains, domain, link)
}

// RemoveDomainRoute deletes the name-suffix route (or reject entry) for
// domain, reporting whether an entry was removed.
func (h *Host) RemoveDomainRoute(domain string) bool {
	return h.tables != nil && h.tables.domains.remove(h.addrs.lookup(domain))
}

// InstallHierRoutes atomically replaces the host's entire routing state —
// exact table, domain (name-suffix) table and default route — returning the
// number of entries that changed (a default-route change counts as one). It
// is the hierarchical-routing counterpart of InstallRoutes: routes is indexed
// by destination id and domains by the id of the domain's name (Network.ID);
// either may be the zero RouteTable for empty. The host keeps both.
func (h *Host) InstallHierRoutes(routes, domains RouteTable, def *netsim.Link) int {
	changed := 0
	if h.tables != nil || len(routes.Links) > 0 || len(domains.Links) > 0 {
		t := h.routeTables()
		changed = swap(&t.exact, routes) + swap(&t.domains, domains)
	}
	if h.def != def {
		h.def = def
		changed++
	}
	return changed
}

// RouteTo returns the link used to reach dstHost, or nil if unroutable. The
// lookup tries an exact match, then the longest dotted name-suffix in the
// domain table, then the default route.
func (h *Host) RouteTo(dstHost string) *netsim.Link {
	return h.route(h.addrs.lookup(dstHost), dstHost)
}

// route is RouteTo on ids: dst is the destination's id, and name is looked at
// only when dst is 0, for a destination the address table does not know. The
// domain lookup follows dst's suffix chain, a few integer lookups.
func (h *Host) route(dst int32, name string) *netsim.Link {
	t := h.tables
	if t == nil {
		return h.def
	}
	suffix := h.addrs.suffix
	var s int32
	if dst != 0 {
		if l := t.exact.get(dst); l != nil {
			return live(l)
		}
		s = suffix[dst]
	} else {
		s = h.addrs.suffixOf(name) // no name without an id has an exact route
	}
	for d := t.domains; s != 0 && len(d.Links) > 0; s = suffix[s] {
		if l := d.get(s); l != nil {
			return live(l)
		}
	}
	return h.def
}

// live maps a reject entry to nil.
func live(l *netsim.Link) *netsim.Link {
	if l == reject {
		return nil
	}
	return l
}

// AllocPort returns a fresh ephemeral port number.
func (h *Host) AllocPort() int {
	h.nextPort++
	return h.nextPort
}

// Bind registers a listener handler for (proto, localPort) accepting packets
// from any remote endpoint. It returns an error if the port is taken.
func (h *Host) Bind(proto netsim.Protocol, localPort int, handler Handler) error {
	return h.bind(bindingKey{localPort: localPort, proto: int32(proto)}, handler)
}

// connKey is the key of a connected binding to remote, whose host has id
// remote (never 0: BindConn interns the name).
func connKey(proto netsim.Protocol, localPort int, remote int32, remotePort int) bindingKey {
	return bindingKey{localPort: localPort, remotePort: remotePort, remote: remote, proto: int32(proto)}
}

// BindConn registers a connected handler for (proto, localPort, remote). A
// connected binding takes precedence over a wildcard Bind on the same port,
// which is how multiple TCP connections share a server port.
func (h *Host) BindConn(proto netsim.Protocol, localPort int, remote netsim.Addr, handler Handler) error {
	return h.bind(connKey(proto, localPort, h.addrs.intern(remote.Host), remote.Port), handler)
}

// bindingTable is a host's demultiplexing state. Beside the bindings it
// remembers the last lookup and its answer, as 4.3BSD's TCP kept the last
// PCB it found: a host's packets come in runs from one connection, and a
// repeat costs a comparison instead of a hash. Any change to the bindings
// forgets it.
type bindingTable struct {
	byKey   map[bindingKey]Handler
	lastKey bindingKey
	last    Handler
}

// lookup returns the handler for a packet whose connected key is k: its
// connected binding, else the wildcard listener of its port, else nil.
func (b *bindingTable) lookup(k bindingKey) Handler {
	if b == nil {
		return nil
	}
	if b.last != nil && b.lastKey == k {
		return b.last
	}
	hd, ok := b.byKey[k]
	if !ok {
		hd = b.byKey[bindingKey{localPort: k.localPort, proto: k.proto}]
	}
	if hd != nil {
		b.lastKey, b.last = k, hd
	}
	return hd
}

// remove deletes k's binding.
func (b *bindingTable) remove(k bindingKey) {
	if b != nil {
		delete(b.byKey, k)
		b.last = nil
	}
}

func (h *Host) bind(k bindingKey, handler Handler) error {
	if handler == nil {
		return fmt.Errorf("node: nil handler for %s port %d", netsim.Protocol(k.proto), k.localPort)
	}
	if h.bindings == nil {
		h.bindings = &bindingTable{byKey: make(map[bindingKey]Handler)}
	}
	if _, ok := h.bindings.byKey[k]; ok {
		return fmt.Errorf("node: %s port %d already bound on %s", netsim.Protocol(k.proto), k.localPort, h.name)
	}
	h.bindings.byKey[k] = handler
	h.bindings.last = nil
	return nil
}

// Unbind removes a wildcard binding.
func (h *Host) Unbind(proto netsim.Protocol, localPort int) {
	h.bindings.remove(bindingKey{localPort: localPort, proto: int32(proto)})
}

// UnbindConn removes a connected binding.
func (h *Host) UnbindConn(proto netsim.Protocol, localPort int, remote netsim.Addr) {
	if id := h.addrs.lookup(remote.Host); id != 0 {
		h.bindings.remove(connKey(proto, localPort, id, remote.Port))
	}
}

// RebindConn hands an existing connected binding to another handler; where no
// such binding exists nothing is bound. TCP uses it when a connection reaches
// TIME_WAIT: a small record takes over the demultiplexing slot and the host no
// longer refers to the endpoint.
func (h *Host) RebindConn(proto netsim.Protocol, localPort int, remote netsim.Addr, handler Handler) {
	if id := h.addrs.lookup(remote.Host); id != 0 {
		k := connKey(proto, localPort, id, remote.Port)
		if b := h.bindings; b != nil {
			if _, ok := b.byKey[k]; ok {
				b.byKey[k] = handler
				b.last = nil
			}
		}
	}
}

// Output is the IP output routine. It invokes the CM transmit notifier (if
// installed), looks up the route to the packet's destination and hands the
// packet to the link. It returns false if the packet could not be sent
// (no route) or was dropped by the link on ingress. It stamps the packet's
// host ids, resolving a name only where the transport stamped none.
func (h *Host) Output(pkt *netsim.Packet) bool {
	if pkt == nil {
		panic("node: Output(nil)")
	}
	if pkt.Src.Host == "" {
		pkt.Src.Host = h.name
	}
	if pkt.TTL == 0 {
		pkt.TTL = netsim.DefaultTTL
	}
	src, dst := pkt.IDs()
	if src == 0 {
		src = h.id
		if pkt.Src.Host != h.name {
			src = h.addrs.lookup(pkt.Src.Host)
		}
	}
	if dst == 0 {
		dst = h.addrs.lookup(pkt.Dst.Host)
	}
	pkt.SetIDs(src, dst)
	link := h.route(dst, pkt.Dst.Host)
	if link == nil {
		h.stats.NoRouteDrops++
		pkt.Release()
		return false
	}
	// The paper modifies ip_output to call cm_notify(flowid, nsent) on each
	// transmission; the notifier reads the flow from the handle the transport
	// stamped on the packet, or looks it up by the packet's flow key when
	// there is none. Transport control packets (pure ACKs, feedback) are not
	// data transmissions and are not charged.
	if h.notifier != nil && !pkt.Control {
		h.stats.NotifierUpcalled++
		charge := pkt.ChargeBytes
		if charge == 0 {
			charge = pkt.Size
		}
		h.notifier.NotifyPacket(pkt, charge)
	}
	h.stats.SentPackets++
	h.stats.SentBytes += int64(pkt.Size)
	return link.Send(pkt)
}

// Receive implements netsim.Receiver: packets addressed to this host are
// demultiplexed to the most specific binding (connected first, then wildcard
// listener); packets in transit are forwarded when the host is a router and
// dropped (with accounting) otherwise. For locally terminated packets the
// host is the end of the packet's life: once the handler returns the packet
// is released back to the pool, and a pooled payload (tcp.Segment,
// udp.Datagram) with it. Handlers therefore keep neither the packet nor its
// payload: they copy what they need during Handle.
//
// A packet that arrives without host ids — one a routing agent or a test put
// straight onto a link — is resolved by name here, once, and carries its ids
// from this hop on.
func (h *Host) Receive(pkt *netsim.Packet) {
	h.assertOwned()
	src, dst := pkt.IDs()
	if dst == 0 {
		src, dst = h.addrs.lookup(pkt.Src.Host), h.addrs.lookup(pkt.Dst.Host)
		pkt.SetIDs(src, dst)
	}
	if dst != h.id {
		h.forward(pkt, dst)
		return
	}
	h.stats.ReceivedPackets++
	h.stats.ReceivedBytes += int64(pkt.Size)
	h.stats.LastReceived = h.sched.Now()
	hd := h.bindings.lookup(connKey(pkt.Proto, pkt.Dst.Port, src, pkt.Src.Port))
	if hd == nil {
		h.stats.NoListenerDrops++
		pkt.Release()
		return
	}
	hd.Handle(pkt)
	pkt.Release()
}

// forward relays a transit packet toward its destination, whose id is dst.
// The hop decrements the TTL (dropping expired packets), consults the routing
// table (falling back to the default route) and hands the packet to the next
// link. Both failure modes are counted in HostStats rather than silently
// discarded. Forwarding deliberately bypasses Output: transit traffic is not a
// local transmission, so it is never charged to the Congestion Manager.
func (h *Host) forward(pkt *netsim.Packet, dst int32) {
	if !h.forwarding {
		h.stats.RouteMissDrops++
		pkt.Release()
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		h.stats.TTLExpiredDrops++
		pkt.Release()
		return
	}
	link := h.route(dst, pkt.Dst.Host)
	if link == nil {
		h.stats.ForwardMissDrops++
		pkt.Release()
		return
	}
	h.stats.ForwardedPackets++
	h.stats.ForwardedBytes += int64(pkt.Size)
	link.Send(pkt)
}

var _ netsim.Receiver = (*Host)(nil)

// Network is a convenience container that creates hosts and wires them
// together with duplex links, maintaining routing tables.
//
// A caller that knows the size of its topology says so with Reserve, and the
// hosts, the duplexes and the link names then come from one allocation each.
// Those slabs live exactly as long as the Network: nothing is ever returned
// to them, and nothing that dies sooner (a connection, a packet) is ever
// placed in one.
type Network struct {
	sched    *simtime.Scheduler
	schedFor func(host string) *simtime.Scheduler
	// addrs gives each host's name, and each dotted suffix of one, its id;
	// nhosts counts the hosts.
	addrs  addrTable
	nhosts int

	// hostSlab and duplexSlab hold reserved, not yet handed-out elements; they
	// are only ever resliced, never grown, so element addresses are stable.
	// names is the buffer link-direction names are cut from.
	hostSlab   []Host
	duplexSlab []netsim.Duplex
	names      strings.Builder
}

// NewNetwork returns an empty topology bound to the scheduler.
func NewNetwork(sched *simtime.Scheduler) *Network {
	if sched == nil {
		panic("node: NewNetwork requires a scheduler")
	}
	return &Network{sched: sched}
}

// NewShardedNetwork returns an empty topology whose hosts are bound to
// per-host schedulers: schedFor maps a host name to the scheduler of the
// shard that owns it. Links created by ConnectDuplex run each direction on
// the transmitting host's scheduler.
func NewShardedNetwork(schedFor func(host string) *simtime.Scheduler) *Network {
	if schedFor == nil {
		panic("node: NewShardedNetwork requires a scheduler map")
	}
	return &Network{schedFor: schedFor}
}

// Reserve sizes the network for hosts more hosts and duplexes more duplex
// links whose direction names total nameBytes bytes (the sum of LinkNameBytes
// over the links). It is an allocation hint only: whatever exceeds a
// reservation, or comes without one, is allocated singly.
func (n *Network) Reserve(hosts, duplexes, nameBytes int) {
	n.hostSlab = make([]Host, hosts)
	n.duplexSlab = make([]netsim.Duplex, duplexes)
	n.names = strings.Builder{}
	n.names.Grow(nameBytes)
	if n.addrs.ids == nil {
		n.addrs = newAddrTable(hosts)
	}
}

// schedOf resolves the scheduler owning the named host.
func (n *Network) schedOf(name string) *simtime.Scheduler {
	if n.schedFor != nil {
		return n.schedFor(name)
	}
	return n.sched
}

// Host returns the named host, creating it on first use.
func (n *Network) Host(name string) *Host {
	id := n.addrs.intern(name)
	if h := n.addrs.hosts[id]; h != nil {
		return h
	}
	n.nhosts++
	return n.addrs.newHost(id, name, n.schedOf(name), take(&n.hostSlab))
}

// ID returns the id the network's hosts know name by, dealing one if the name
// has none. A hierarchical routing table keys its domains by these ids
// (InstallHierRoutes); a topology interns its domain names while it is
// assembled, with its hosts.
func (n *Network) ID(name string) int32 { return n.addrs.intern(name) }

// Router returns the named host with forwarding enabled, creating it on
// first use. Calling Router on an existing host upgrades it in place.
func (n *Network) Router(name string) *Host {
	h := n.Host(name)
	h.EnableForwarding()
	return h
}

// Hosts returns the number of hosts created so far.
func (n *Network) Hosts() int { return n.nhosts }

// ConnectDuplex joins hosts a and b with a duplex link built from cfg and
// installs routes in both directions. It returns the duplex so experiments
// can inspect per-direction statistics or install taps.
func (n *Network) ConnectDuplex(a, b string, cfg netsim.LinkConfig) *netsim.Duplex {
	d := n.Link(a, b, cfg)
	n.Host(a).AddRoute(b, d.Forward)
	n.Host(b).AddRoute(a, d.Reverse)
	return d
}

// Link joins hosts a and b with a duplex link built from cfg, forward from a
// to b, and installs no routes: it is ConnectDuplex for a caller that computes
// every table itself. An unnamed link is called "a<->b"; its directions are
// that name plus "-fwd" and "-rev".
func (n *Network) Link(a, b string, cfg netsim.LinkConfig) *netsim.Duplex {
	ha, hb := n.Host(a), n.Host(b)
	d := take(&n.duplexSlab)
	var fwd, rev string
	if cfg.Name == "" {
		fwd, rev = n.cutName(a, "<->", b, "-fwd"), n.cutName(a, "<->", b, "-rev")
	} else {
		fwd, rev = n.cutName(cfg.Name, "-fwd"), n.cutName(cfg.Name, "-rev")
	}
	d.Init(ha.Clock(), hb.Clock(), cfg, fwd, rev)
	d.Connect(ha, hb)
	return d
}

// LinkNameBytes returns how many bytes the two direction names of a link
// between a and b take: name (or "a<->b" for an unnamed link) plus "-fwd" and
// plus "-rev".
func LinkNameBytes(a, b, name string) int {
	if name == "" {
		return 2 * (len(a) + len("<->") + len(b) + len("-fwd"))
	}
	return 2 * (len(name) + len("-fwd"))
}

// take hands out the next element of a reserved slab, or a fresh one when
// the reservation is used up. A slab is only ever resliced, so the addresses
// handed out stay valid.
func take[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		return new(T)
	}
	e := &(*slab)[0]
	*slab = (*slab)[1:]
	return e
}

// cutName returns the concatenation of parts as a string cut from the name
// buffer. A strings.Builder never moves bytes it has handed out as long as it
// does not grow, so when the reservation is used up the buffer is abandoned to
// the names already cut from it and a new one, of just this name, takes over.
func (n *Network) cutName(parts ...string) string {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	if n.names.Cap()-n.names.Len() < size {
		n.names = strings.Builder{}
		n.names.Grow(size)
	}
	start := n.names.Len()
	for _, p := range parts {
		n.names.WriteString(p)
	}
	return n.names.String()[start:]
}
