package node

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

func lanCfg() netsim.LinkConfig {
	return netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 1000, Seed: 1}
}

func TestHostConstructorValidation(t *testing.T) {
	s := simtime.NewScheduler()
	for _, fn := range []func(){
		func() { NewHost("", s) },
		func() { NewHost("x", nil) },
		func() { NewNetwork(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	h := NewHost("a", s)
	if h.Name() != "a" || h.Clock() != s {
		t.Fatal("host accessors wrong")
	}
}

func TestNetworkDeliversBetweenHosts(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("mit", "utah", lanCfg())
	if net.Hosts() != 2 {
		t.Fatalf("Hosts() = %d, want 2", net.Hosts())
	}

	var got []*netsim.Packet
	err := net.Host("utah").Bind(netsim.ProtoUDP, 5000, HandlerFunc(func(p *netsim.Packet) { got = append(got, p) }))
	if err != nil {
		t.Fatal(err)
	}

	ok := net.Host("mit").Output(&netsim.Packet{
		Proto: netsim.ProtoUDP,
		Src:   netsim.Addr{Host: "mit", Port: 4000},
		Dst:   netsim.Addr{Host: "utah", Port: 5000},
		Size:  500,
	})
	if !ok {
		t.Fatal("Output failed")
	}
	s.Run()
	if len(got) != 1 || got[0].Size != 500 {
		t.Fatalf("delivered %d packets", len(got))
	}
	if st := net.Host("mit").Stats(); st.SentPackets != 1 || st.SentBytes != 500 {
		t.Fatalf("sender stats %+v", st)
	}
	if st := net.Host("utah").Stats(); st.ReceivedPackets != 1 {
		t.Fatalf("receiver stats %+v", st)
	}
}

func TestOutputFillsSourceHost(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("a", "b", lanCfg())
	var src string
	net.Host("b").Bind(netsim.ProtoUDP, 1, HandlerFunc(func(p *netsim.Packet) { src = p.Src.Host }))
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 1}, Size: 10})
	s.Run()
	if src != "a" {
		t.Fatalf("source host = %q, want %q", src, "a")
	}
}

func TestNoRouteDrop(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("lonely", s)
	ok := h.Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "nowhere", Port: 1}, Size: 10})
	if ok {
		t.Fatal("Output should fail with no route")
	}
	if h.Stats().NoRouteDrops != 1 {
		t.Fatalf("NoRouteDrops = %d", h.Stats().NoRouteDrops)
	}
}

func TestDefaultRoute(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	d := net.ConnectDuplex("a", "b", lanCfg())
	a := net.Host("a")
	a.SetDefaultRoute(d.Forward)
	var got int
	net.Host("b").Bind(netsim.ProtoUDP, 7, HandlerFunc(func(p *netsim.Packet) { got++ }))
	// "c" has no explicit route; default route points at b's link, and since
	// the packet is addressed to b's port, b receives it.
	a.Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 7}, Size: 10})
	if a.RouteTo("unknown") != d.Forward {
		t.Fatal("RouteTo should fall back to default route")
	}
	s.Run()
	if got != 1 {
		t.Fatal("packet via explicit route not delivered")
	}
}

func TestNoListenerDrop(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("a", "b", lanCfg())
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 9999}, Size: 10})
	s.Run()
	if net.Host("b").Stats().NoListenerDrops != 1 {
		t.Fatal("expected a no-listener drop")
	}
}

func TestConnectedBindingTakesPrecedence(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("client", "server", lanCfg())
	srv := net.Host("server")

	var wildcard, connected int
	if err := srv.Bind(netsim.ProtoTCP, 80, HandlerFunc(func(p *netsim.Packet) { wildcard++ })); err != nil {
		t.Fatal(err)
	}
	send := func(srcPort int) {
		net.Host("client").Output(&netsim.Packet{
			Proto: netsim.ProtoTCP,
			Src:   netsim.Addr{Host: "client", Port: srcPort},
			Dst:   netsim.Addr{Host: "server", Port: 80},
			Size:  40,
		})
	}
	// Before the connected binding exists the packet goes to the listener,
	// and the host remembers that answer; the bind must make it forget.
	send(1234)
	s.Run()
	remote := netsim.Addr{Host: "client", Port: 1234}
	if err := srv.BindConn(netsim.ProtoTCP, 80, remote, HandlerFunc(func(p *netsim.Packet) { connected++ })); err != nil {
		t.Fatal(err)
	}

	send(1234) // matches the connected binding
	send(9999) // falls back to the wildcard listener
	s.Run()
	if connected != 1 || wildcard != 2 {
		t.Fatalf("connected=%d wildcard=%d, want 1/2", connected, wildcard)
	}

	srv.UnbindConn(netsim.ProtoTCP, 80, remote)
	send(1234)
	s.Run()
	if wildcard != 3 {
		t.Fatal("after UnbindConn the wildcard listener should receive the packet")
	}
	srv.Unbind(netsim.ProtoTCP, 80)
	send(1234)
	s.Run()
	if srv.Stats().NoListenerDrops != 1 {
		t.Fatal("after Unbind packets should be dropped")
	}
}

func TestDuplicateBindFails(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("a", s)
	if err := h.Bind(netsim.ProtoUDP, 53, HandlerFunc(func(p *netsim.Packet) {})); err != nil {
		t.Fatal(err)
	}
	if err := h.Bind(netsim.ProtoUDP, 53, HandlerFunc(func(p *netsim.Packet) {})); err == nil {
		t.Fatal("duplicate bind should fail")
	}
	if err := h.Bind(netsim.ProtoUDP, 54, nil); err == nil {
		t.Fatal("nil handler should fail")
	}
}

func TestAllocPortUnique(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("a", s)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := h.AllocPort()
		if seen[p] {
			t.Fatalf("port %d allocated twice", p)
		}
		seen[p] = true
	}
}

type recordingNotifier struct {
	keys  []netsim.FlowKey
	bytes []int
}

func (r *recordingNotifier) NotifyPacket(p *netsim.Packet, n int) {
	r.keys = append(r.keys, p.Key())
	r.bytes = append(r.bytes, n)
}

func TestTransmitNotifierInvokedPerPacket(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("a", "b", lanCfg())
	rec := &recordingNotifier{}
	a := net.Host("a")
	a.SetTransmitNotifier(rec)
	net.Host("b").Bind(netsim.ProtoUDP, 1, HandlerFunc(func(p *netsim.Packet) {}))

	for i := 0; i < 3; i++ {
		a.Output(&netsim.Packet{
			Proto: netsim.ProtoUDP,
			Src:   netsim.Addr{Host: "a", Port: 100},
			Dst:   netsim.Addr{Host: "b", Port: 1},
			Size:  200 + i,
		})
	}
	s.Run()
	if len(rec.keys) != 3 {
		t.Fatalf("notifier called %d times, want 3", len(rec.keys))
	}
	if rec.bytes[2] != 202 {
		t.Fatalf("notifier byte counts %v", rec.bytes)
	}
	if rec.keys[0].Dst.Host != "b" || rec.keys[0].Src.Port != 100 {
		t.Fatalf("notifier key %+v", rec.keys[0])
	}
	if a.Stats().NotifierUpcalled != 3 {
		t.Fatalf("NotifierUpcalled = %d", a.Stats().NotifierUpcalled)
	}
}

func TestNotifierNotCalledWhenAbsent(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("a", "b", lanCfg())
	a := net.Host("a")
	a.Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 1}, Size: 10})
	if a.Stats().NotifierUpcalled != 0 {
		t.Fatal("notifier counter should stay zero without a notifier")
	}
}

func TestHostReturnsSameInstance(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	if net.Host("x") != net.Host("x") {
		t.Fatal("Host should be idempotent")
	}
}

func TestAddRouteNilPanics(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("a", s)
	defer func() {
		if recover() == nil {
			t.Fatal("AddRoute(nil) should panic")
		}
	}()
	h.AddRoute("b", nil)
}

func TestOutputNilPanics(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("a", s)
	defer func() {
		if recover() == nil {
			t.Fatal("Output(nil) should panic")
		}
	}()
	h.Output(nil)
}

// chain wires a <-> r <-> b with r forwarding, installing the multi-hop
// routes a->b and b->a through the router, and returns the network.
func chain(s *simtime.Scheduler) *Network {
	net := NewNetwork(s)
	ar := net.ConnectDuplex("a", "r", lanCfg())
	rb := net.ConnectDuplex("r", "b", lanCfg())
	net.Router("r")
	net.Host("a").AddRoute("b", ar.Forward)
	net.Host("b").AddRoute("a", rb.Reverse)
	return net
}

func TestForwardingRelaysMultiHop(t *testing.T) {
	s := simtime.NewScheduler()
	net := chain(s)
	var got int
	net.Host("b").Bind(netsim.ProtoUDP, 5, HandlerFunc(func(p *netsim.Packet) {
		got++
		if p.TTL != netsim.DefaultTTL-1 {
			t.Errorf("TTL = %d, want %d", p.TTL, netsim.DefaultTTL-1)
		}
	}))
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 5}, Size: 100})
	s.Run()
	if got != 1 {
		t.Fatalf("delivered %d packets across the router, want 1", got)
	}
	rst := net.Host("r").Stats()
	if rst.ForwardedPackets != 1 || rst.ForwardedBytes != 100 {
		t.Fatalf("router forwarding stats %+v", rst)
	}
	if rst.ReceivedPackets != 0 {
		t.Fatalf("transit traffic must not count as received: %+v", rst)
	}
}

func TestForwardingRouteMissCounted(t *testing.T) {
	s := simtime.NewScheduler()
	net := chain(s)
	// a has no route to "ghost"; give it one via the router, which has none.
	ar := net.Host("a").RouteTo("r")
	net.Host("a").AddRoute("ghost", ar)
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "ghost", Port: 1}, Size: 10})
	s.Run()
	if d := net.Host("r").Stats().ForwardMissDrops; d != 1 {
		t.Fatalf("ForwardMissDrops = %d, want 1", d)
	}
	if d := net.Host("r").Stats().RouteMissDrops; d != 0 {
		t.Fatalf("a router's table miss must not count as a leaf drop, got RouteMissDrops = %d", d)
	}
}

func TestForwardingDefaultRouteFallback(t *testing.T) {
	s := simtime.NewScheduler()
	net := chain(s)
	// The router has no explicit route to "b"... remove by using a fresh dst:
	// route a->c via r, r reaches c only through its default route.
	rc := net.ConnectDuplex("r", "c", lanCfg())
	net.Host("r").SetDefaultRoute(rc.Forward)
	ar := net.Host("a").RouteTo("r")
	net.Host("a").AddRoute("c", ar)
	var got int
	net.Host("c").Bind(netsim.ProtoUDP, 5, HandlerFunc(func(p *netsim.Packet) { got++ }))
	// Delete r's explicit route to c installed by ConnectDuplex so the
	// default route is what carries the packet.
	net.Host("r").RemoveRoute("c")
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "c", Port: 5}, Size: 10})
	s.Run()
	if got != 1 {
		t.Fatal("packet should reach c via the router's default route")
	}
	if d := net.Host("r").Stats().ForwardMissDrops; d != 0 {
		t.Fatalf("default-route fallback must not count a route miss, got %d", d)
	}
}

func TestTTLExpiryBreaksRoutingLoop(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	// Two routers pointing at each other for an unreachable destination.
	d := net.ConnectDuplex("r1", "r2", lanCfg())
	net.Router("r1")
	net.Router("r2")
	net.Host("r1").AddRoute("ghost", d.Forward)
	net.Host("r2").AddRoute("ghost", d.Reverse)
	net.Host("r1").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "ghost", Port: 1}, Size: 10})
	s.Run()
	exp := net.Host("r1").Stats().TTLExpiredDrops + net.Host("r2").Stats().TTLExpiredDrops
	if exp != 1 {
		t.Fatalf("TTLExpiredDrops total = %d, want 1", exp)
	}
	hops := net.Host("r1").Stats().ForwardedPackets + net.Host("r2").Stats().ForwardedPackets
	if hops != netsim.DefaultTTL-1 {
		t.Fatalf("packet took %d hops before expiry, want %d", hops, netsim.DefaultTTL-1)
	}
}

func TestNonForwardingHostDropsTransit(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	net.ConnectDuplex("a", "b", lanCfg())
	// Address a packet to a host name b does not own; b must not demux it.
	var handled int
	net.Host("b").Bind(netsim.ProtoUDP, 1, HandlerFunc(func(p *netsim.Packet) { handled++ }))
	ab := net.Host("a").RouteTo("b")
	net.Host("a").AddRoute("elsewhere", ab)
	net.Host("a").Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "elsewhere", Port: 1}, Size: 10})
	s.Run()
	if handled != 0 {
		t.Fatal("transit packet must not be demultiplexed to a local binding")
	}
	if d := net.Host("b").Stats().RouteMissDrops; d != 1 {
		t.Fatalf("RouteMissDrops = %d, want 1", d)
	}
}

// routeTable builds the id-indexed table of m, spanning the ids m names, as
// a caller holding names would: through Network.ID.
func routeTable(net *Network, m map[string]*netsim.Link) RouteTable {
	if len(m) == 0 {
		return RouteTable{}
	}
	lo, hi := int32(math.MaxInt32), int32(0)
	for name := range m {
		id := net.ID(name)
		lo, hi = min(lo, id), max(hi, id)
	}
	t := RouteTable{Base: lo, Links: make([]*netsim.Link, hi-lo+1)}
	for name, l := range m {
		t.Links[net.ID(name)-lo] = l
	}
	return t
}

// TestInstallRoutesAtomicSwap checks the route-table replacement used by the
// dynamics subsystem: the new table fully replaces the old one, the change
// count reflects added/removed/repointed entries, and forwarding immediately
// honours the new table.
func TestInstallRoutesAtomicSwap(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	d1 := net.ConnectDuplex("a", "b", lanCfg())
	d2 := net.ConnectDuplex("a", "c", lanCfg())
	h := net.Host("a")

	// ConnectDuplex installed {b: d1.Forward, c: d2.Forward}. Repoint b via c,
	// drop c, add d.
	changed := h.InstallRoutes(routeTable(net, map[string]*netsim.Link{
		"b": d2.Forward,
		"d": d1.Forward,
	}))
	if changed != 3 {
		t.Fatalf("changed = %d, want 3 (b repointed, c removed, d added)", changed)
	}
	if h.RouteTo("b") != d2.Forward || h.RouteTo("c") != nil || h.RouteTo("d") != d1.Forward {
		t.Fatal("table not atomically replaced")
	}
	// Installing the identical table changes nothing.
	if changed := h.InstallRoutes(routeTable(net, map[string]*netsim.Link{"b": d2.Forward, "d": d1.Forward})); changed != 0 {
		t.Fatalf("idempotent install changed %d entries", changed)
	}
	// The empty table empties the host's routes; sends then count NoRouteDrops.
	if changed := h.InstallRoutes(RouteTable{}); changed != 2 {
		t.Fatalf("clearing changed %d entries, want 2", changed)
	}
	h.Output(&netsim.Packet{Proto: netsim.ProtoUDP, Dst: netsim.Addr{Host: "b", Port: 1}, Size: 10})
	if drops := h.Stats().NoRouteDrops; drops != 1 {
		t.Fatalf("NoRouteDrops = %d, want 1", drops)
	}
}

// TestDomainRouteSuffixMatch checks the hierarchical lookup order: exact
// match first, then the longest dotted name-suffix in the domain table, then
// the default route.
func TestDomainRouteSuffixMatch(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	d1 := net.ConnectDuplex("r", "edge", lanCfg())
	d2 := net.ConnectDuplex("r", "pod", lanCfg())
	d3 := net.ConnectDuplex("r", "up", lanCfg())
	h := net.Host("r")
	h.InstallHierRoutes(
		routeTable(net, map[string]*netsim.Link{"h9.e1.p2": d3.Forward}),
		routeTable(net, map[string]*netsim.Link{"e1.p2": d1.Forward, "p2": d2.Forward}),
		d3.Forward,
	)
	cases := []struct {
		dst  string
		want *netsim.Link
	}{
		{"h9.e1.p2", d3.Forward}, // exact beats the e1.p2 domain
		{"h3.e1.p2", d1.Forward}, // longest suffix e1.p2 beats p2
		{"h3.e7.p2", d2.Forward}, // only p2 matches
		{"h3.e7.p9", d3.Forward}, // no suffix matches: default route
		{"p2", d3.Forward},       // a domain never matches the bare name
	}
	for _, c := range cases {
		if got := h.RouteTo(c.dst); got != c.want {
			t.Errorf("RouteTo(%q) = %v, want %v", c.dst, got, c.want)
		}
	}
}

// TestInstallHierRoutesCountsChanges pins the changed-entry accounting across
// the exact table, the domain table and the default route.
func TestInstallHierRoutesCountsChanges(t *testing.T) {
	s := simtime.NewScheduler()
	net := NewNetwork(s)
	d1 := net.ConnectDuplex("r", "a", lanCfg())
	d2 := net.ConnectDuplex("r", "b", lanCfg())
	h := net.Host("r")
	// ConnectDuplex installed exact routes {a, b}; replacing them with one
	// exact entry, two domains and a default counts every delta.
	changed := h.InstallHierRoutes(
		routeTable(net, map[string]*netsim.Link{"a": d1.Forward}),
		routeTable(net, map[string]*netsim.Link{"p1": d1.Forward, "p2": d2.Forward}),
		d2.Forward,
	)
	// b removed (1) + p1, p2 added (2) + default set (1) = 4.
	if changed != 4 {
		t.Fatalf("changed = %d, want 4", changed)
	}
	// Idempotent reinstall changes nothing.
	if changed := h.InstallHierRoutes(
		routeTable(net, map[string]*netsim.Link{"a": d1.Forward}),
		routeTable(net, map[string]*netsim.Link{"p1": d1.Forward, "p2": d2.Forward}),
		d2.Forward,
	); changed != 0 {
		t.Fatalf("idempotent install changed %d entries", changed)
	}
	// Repointing one domain and dropping the default counts 2.
	if changed := h.InstallHierRoutes(
		routeTable(net, map[string]*netsim.Link{"a": d1.Forward}),
		routeTable(net, map[string]*netsim.Link{"p1": d2.Forward, "p2": d2.Forward}),
		nil,
	); changed != 2 {
		t.Fatalf("changed = %d, want 2 (p1 repointed, default cleared)", changed)
	}
}

// RebindConn swaps the handler of a live connected binding in place and binds
// nothing where no such binding exists (a connection that was unbound stays
// unbound, and the wildcard listener keeps seeing its packets).
func TestRebindConnReplacesOnlyExistingBindings(t *testing.T) {
	s := simtime.NewScheduler()
	h := NewHost("server", s)
	var first, second, wildcard int
	remote := netsim.Addr{Host: "client", Port: 1234}
	if err := h.Bind(netsim.ProtoTCP, 80, HandlerFunc(func(*netsim.Packet) { wildcard++ })); err != nil {
		t.Fatal(err)
	}
	if err := h.BindConn(netsim.ProtoTCP, 80, remote, HandlerFunc(func(*netsim.Packet) { first++ })); err != nil {
		t.Fatal(err)
	}
	deliver := func() {
		h.Receive(&netsim.Packet{Proto: netsim.ProtoTCP, Src: remote, Dst: netsim.Addr{Host: "server", Port: 80}, Size: 40})
	}
	deliver()
	h.RebindConn(netsim.ProtoTCP, 80, remote, HandlerFunc(func(*netsim.Packet) { second++ }))
	deliver()
	h.UnbindConn(netsim.ProtoTCP, 80, remote)
	h.RebindConn(netsim.ProtoTCP, 80, remote, HandlerFunc(func(*netsim.Packet) { second++ }))
	deliver()
	if first != 1 || second != 1 || wildcard != 1 {
		t.Fatalf("first=%d second=%d wildcard=%d, want 1/1/1", first, second, wildcard)
	}
}

// A packet that reaches the network without host ids — a routing agent's
// message put straight onto a link, a test literal handed to a host — is
// resolved by name at the first host and from then on must route, forward,
// demultiplex and count exactly like one sent through Output, which stamps
// the ids. Each case is sent three ways on a fresh network a <-> r <-> b: by
// a's Output, as a literal put on a's link to r, and as a literal handed to
// r. The router, the destination and the handlers must see the same thing.
func TestPacketsWithoutIDsBehaveLikeStamped(t *testing.T) {
	type outcome struct {
		r, b    HostStats
		handled string
	}
	send := func(p netsim.Packet, how int) outcome {
		s := simtime.NewScheduler()
		net := NewNetwork(s)
		ar := net.ConnectDuplex("a", "r", lanCfg())
		net.ConnectDuplex("r", "b", lanCfg())
		net.Host("a").SetDefaultRoute(ar.Forward)
		r, b := net.Router("r"), net.Host("b")
		r.SetDomainRoute("sub", r.RouteTo("b")) // "h1.sub" is no host: reached by suffix
		var o outcome
		handler := func(name string) Handler {
			return HandlerFunc(func(*netsim.Packet) { o.handled = name })
		}
		b.Bind(netsim.ProtoUDP, 7, handler("listener"))
		b.BindConn(netsim.ProtoUDP, 7, netsim.Addr{Host: "a", Port: 1234}, handler("conn a"))
		b.BindConn(netsim.ProtoUDP, 7, netsim.Addr{Host: "c", Port: 1234}, handler("conn c"))
		pkt := p
		switch how {
		case 0:
			net.Host("a").Output(&pkt)
		case 1:
			pkt.TTL = netsim.DefaultTTL
			ar.Forward.Send(&pkt)
		case 2:
			pkt.TTL = netsim.DefaultTTL
			r.Receive(&pkt)
		}
		s.Run()
		o.r, o.b = r.Stats(), b.Stats()
		o.b.LastReceived = 0 // handed to r directly, the packet skips a's link
		return o
	}
	udp := func(src netsim.Addr, dst string, port int) netsim.Packet {
		return netsim.Packet{Proto: netsim.ProtoUDP, Src: src, Dst: netsim.Addr{Host: dst, Port: port}, Size: 100}
	}
	a, c := netsim.Addr{Host: "a", Port: 1234}, netsim.Addr{Host: "c", Port: 1234}
	for _, tc := range []struct {
		name string
		pkt  netsim.Packet
		want func(o outcome) bool
	}{
		{"connected binding", udp(a, "b", 7), func(o outcome) bool { return o.handled == "conn a" }},
		{"listener", udp(netsim.Addr{Host: "a", Port: 9}, "b", 7), func(o outcome) bool { return o.handled == "listener" }},
		{"no listener", udp(a, "b", 8), func(o outcome) bool { return o.b.NoListenerDrops == 1 }},
		{"another host's source", udp(c, "b", 7), func(o outcome) bool { return o.handled == "conn c" }},
		{"domain route to a leaf", udp(a, "h1.sub", 7), func(o outcome) bool { return o.b.RouteMissDrops == 1 }},
		{"no route at the router", udp(a, "ghost", 7), func(o outcome) bool { return o.r.ForwardMissDrops == 1 }},
	} {
		stamped := send(tc.pkt, 0)
		if !tc.want(stamped) || stamped.r.ForwardedPackets+stamped.r.ForwardMissDrops != 1 {
			t.Errorf("%s: sent through Output: %+v", tc.name, stamped)
		}
		for how, form := range []string{"a literal on a's link", "a literal handed to r"} {
			if got := send(tc.pkt, how+1); got != stamped {
				t.Errorf("%s: %s:\n    got     %+v\n    Output  %+v", tc.name, form, got, stamped)
			}
		}
	}
}
