package node

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// The transit-relay hot path (Receive -> forward -> next link) carries every
// packet of every multi-hop scenario through each router, so it must not
// allocate in steady state: the packet comes from the pool, the TTL
// decrement and route lookup are in-place, and the next link's transmit
// events come from the scheduler freelist. Three relays are gated: an exact
// route for a packet that arrives without host ids (resolved by name at the
// router) and ends at a host with no listener; a hierarchical router's domain
// route, reached by walking the destination's suffix chain, for a packet
// stamped with ids as a transport stamps them; and a delivery demultiplexed
// to a connected binding.
func TestForwardingHotPathZeroAlloc(t *testing.T) {
	cfg := netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 64}
	for _, c := range []struct {
		name string
		dst  string
		// setup wires src -> r -> dst and returns the router and what the
		// destination counts per delivered packet.
		setup func(r, dst *Host, out *netsim.Link) (delivered func() int)
		stamp bool
	}{
		{"exact route, no listener", "dst", func(r, dst *Host, out *netsim.Link) func() int {
			r.AddRoute("dst", out)
			return func() int { return dst.Stats().NoListenerDrops }
		}, false},
		{"domain route", "h0.e1.p2", func(r, dst *Host, out *netsim.Link) func() int {
			r.RemoveRoute(dst.Name())
			r.SetDomainRoute("p2", out)
			return func() int { return dst.Stats().NoListenerDrops }
		}, true},
		{"connected binding", "dst", func(r, dst *Host, out *netsim.Link) func() int {
			n := 0
			if err := dst.Bind(netsim.ProtoUDP, 2, HandlerFunc(func(*netsim.Packet) {})); err != nil {
				t.Fatal(err)
			}
			if err := dst.BindConn(netsim.ProtoUDP, 2, netsim.Addr{Host: "src", Port: 1}, HandlerFunc(func(*netsim.Packet) { n++ })); err != nil {
				t.Fatal(err)
			}
			return func() int { return n }
		}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			sched := simtime.NewScheduler()
			nw := NewNetwork(sched)
			nw.ConnectDuplex("src", "r", cfg)
			d2 := nw.ConnectDuplex("r", c.dst, cfg)
			router := nw.Router("r")
			src, dst := nw.Host("src"), nw.Host(c.dst)
			delivered := c.setup(router, dst, d2.Forward)
			relay := func() {
				p := netsim.NewPacket()
				p.Proto = netsim.ProtoUDP
				p.Src = netsim.Addr{Host: "src", Port: 1}
				p.Dst = netsim.Addr{Host: c.dst, Port: 2}
				p.Size = 1500
				p.TTL = netsim.DefaultTTL
				if c.stamp {
					p.SetIDs(src.ID(), dst.ID())
				}
				router.Receive(p)
				sched.Run()
			}
			for i := 0; i < 64; i++ {
				relay()
			}
			allocs := testing.AllocsPerRun(500, relay)
			if allocs != 0 {
				t.Fatalf("transit relay allocated %.1f objects per op, want 0", allocs)
			}
			if got, want := delivered(), 64+501; got != want || router.Stats().ForwardedPackets != want {
				t.Fatalf("%d of %d relayed packets delivered, %d forwarded", got, want, router.Stats().ForwardedPackets)
			}
		})
	}
}

// A host pinned to a shard must refuse to run outside it.
func TestOwnershipCheckEnforced(t *testing.T) {
	sched := simtime.NewScheduler()
	h := NewHost("a", sched)
	allowed := true
	h.SetOwnershipCheck(func() bool { return allowed })
	p := &netsim.Packet{Dst: netsim.Addr{Host: "a", Port: 1}}
	h.Receive(p) // allowed: no panic
	allowed = false
	defer func() {
		if recover() == nil {
			t.Fatal("Receive outside the owning shard must panic")
		}
	}()
	h.Receive(&netsim.Packet{Dst: netsim.Addr{Host: "a", Port: 1}})
}

// A reserved network hands out hosts, duplexes and link names from the three
// allocations Reserve made: an idle host or link is a slab entry, not an
// object. Whatever exceeds the reservation is allocated singly and behaves the
// same. Addresses handed out stay valid: the slabs are only ever resliced.
func TestReservedNetworkAllocatesPerKind(t *testing.T) {
	const n = 200
	names := make([]string, n+1)
	for i := range names {
		names[i] = "h" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	cfg := netsim.LinkConfig{Bandwidth: netsim.Mbps, QueuePackets: 10}
	nameBytes := 0
	for i := 0; i < n; i++ {
		nameBytes += LinkNameBytes(names[0], names[i+1], "")
	}
	build := func(reserve bool) (*Network, []*netsim.Duplex) {
		nw := NewNetwork(simtime.NewScheduler())
		if reserve {
			nw.Reserve(n+1, n, nameBytes)
		}
		ds := make([]*netsim.Duplex, 0, n)
		for i := 0; i < n; i++ {
			ds = append(ds, nw.Link(names[0], names[i+1], cfg))
		}
		return nw, ds
	}
	// A star of n leaves: the host map (sized by Reserve), three slabs, the
	// network and the duplex list; nothing that grows with n.
	allocs := testing.AllocsPerRun(10, func() { build(true) })
	t.Logf("a reserved star of %d links: %.0f objects", n, allocs)
	if allocs > 16 {
		t.Errorf("a reserved star of %d links allocated %.0f objects, want a constant handful", n, allocs)
	}
	nw, ds := build(true)
	loose, looseDs := build(false)
	for i, d := range ds {
		a, b := names[0], names[i+1]
		for _, dir := range []struct {
			l    *netsim.Link
			want string
			twin *netsim.Link
		}{{d.Forward, a + "<->" + b + "-fwd", looseDs[i].Forward}, {d.Reverse, a + "<->" + b + "-rev", looseDs[i].Reverse}} {
			if got := dir.l.Config().Name; got != dir.want {
				t.Fatalf("link %d is called %q, want %q", i, got, dir.want)
			}
			if dir.l.SortKey() != dir.twin.SortKey() || dir.twin.Config().Name != dir.want {
				t.Fatalf("link %d: reserved and unreserved networks disagree on %q", i, dir.want)
			}
		}
		if nw.Host(b).RouteTo(a) != nil || loose.Host(b).RouteTo(a) != nil {
			t.Fatalf("Link installed a route on %s", b)
		}
	}
	// Past the reservation: one more host and link, named and wired alike.
	extra := nw.ConnectDuplex(names[1], "late", netsim.LinkConfig{Name: "tail"})
	if extra.Forward.Config().Name != "tail-fwd" || extra.Reverse.Config().Name != "tail-rev" {
		t.Errorf("named link past the reservation: %q, %q", extra.Forward.Config().Name, extra.Reverse.Config().Name)
	}
	if nw.Host("late").RouteTo(names[1]) != extra.Reverse || nw.Hosts() != n+2 {
		t.Error("host past the reservation is not wired like the others")
	}
	if ds[0].Forward.Config().Name != names[0]+"<->"+names[1]+"-fwd" || nw.Host(names[1]).Name() != names[1] {
		t.Error("growing past the reservation moved what was handed out before")
	}
}
