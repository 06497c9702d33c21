package node

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// ---------------------------------------------------------------------------
// The reference host: the tables as Host had them before they became lazy
// and before they were keyed by host ids. Three maps keyed by name, made by
// the constructor, an install that swaps in the caller's map (a fresh one for
// nil), lookups and demultiplexing written straight from the doc comments.
// Nothing here can go wrong the way a nil table or an id can — no write to a
// map that was never made, no stale table surviving an empty install, no
// suffix chain or stamped id disagreeing with a name — which is what the
// differential test below leans on.
// ---------------------------------------------------------------------------

type refHost struct {
	name       string
	now        func() time.Duration
	routes     map[string]*netsim.Link
	domains    map[string]*netsim.Link
	def        *netsim.Link
	bindings   map[refKey]Handler
	stats      HostStats
	forwarding bool
}

func newRefHost(name string, now func() time.Duration) *refHost {
	return &refHost{
		name:     name,
		now:      now,
		routes:   map[string]*netsim.Link{},
		domains:  map[string]*netsim.Link{},
		bindings: map[refKey]Handler{},
	}
}

func (r *refHost) Stats() HostStats                  { return r.stats }
func (r *refHost) EnableForwarding()                 { r.forwarding = true }
func (r *refHost) AddRoute(d string, l *netsim.Link) { r.routes[d] = l }
func (r *refHost) SetDefaultRoute(l *netsim.Link)    { r.def = l }

func refSet(table map[string]*netsim.Link, key string, l *netsim.Link) bool {
	if old, ok := table[key]; ok && old == l {
		return false
	}
	table[key] = l
	return true
}

func refRemove(table map[string]*netsim.Link, key string) bool {
	_, ok := table[key]
	delete(table, key)
	return ok
}

// refInstall replaces *table with next and returns how many entries differ.
func refInstall(table *map[string]*netsim.Link, next map[string]*netsim.Link) int {
	if next == nil {
		next = map[string]*netsim.Link{}
	}
	changed := 0
	for k, l := range next {
		if old, ok := (*table)[k]; !ok || old != l {
			changed++
		}
	}
	for k := range *table {
		if _, ok := next[k]; !ok {
			changed++
		}
	}
	*table = next
	return changed
}

func (r *refHost) SetRoute(d string, l *netsim.Link) bool       { return refSet(r.routes, d, l) }
func (r *refHost) RemoveRoute(d string) bool                    { return refRemove(r.routes, d) }
func (r *refHost) SetDomainRoute(d string, l *netsim.Link) bool { return refSet(r.domains, d, l) }
func (r *refHost) RemoveDomainRoute(d string) bool              { return refRemove(r.domains, d) }
func (r *refHost) InstallRoutes(t map[string]*netsim.Link) int  { return refInstall(&r.routes, t) }

func (r *refHost) InstallHierRoutes(routes, domains map[string]*netsim.Link, def *netsim.Link) int {
	changed := refInstall(&r.routes, routes) + refInstall(&r.domains, domains)
	if r.def != def {
		r.def = def
		changed++
	}
	return changed
}

func (r *refHost) RouteTo(dst string) *netsim.Link {
	if l, ok := r.routes[dst]; ok {
		return l
	}
	for rest := dst; ; {
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			break
		}
		rest = rest[dot+1:]
		if l, ok := r.domains[rest]; ok {
			return l
		}
	}
	return r.def
}

// refKey is a binding's key by name: remoteHost "" and remotePort 0 for a
// wildcard listener.
type refKey struct {
	proto      netsim.Protocol
	localPort  int
	remoteHost string
	remotePort int
}

func (r *refHost) bind(k refKey, hd Handler) error {
	if hd == nil {
		return fmt.Errorf("nil handler")
	}
	if _, ok := r.bindings[k]; ok {
		return fmt.Errorf("taken")
	}
	r.bindings[k] = hd
	return nil
}

func refConnKey(proto netsim.Protocol, port int, remote netsim.Addr) refKey {
	return refKey{proto: proto, localPort: port, remoteHost: remote.Host, remotePort: remote.Port}
}

func (r *refHost) Bind(proto netsim.Protocol, port int, hd Handler) error {
	return r.bind(refKey{proto: proto, localPort: port}, hd)
}
func (r *refHost) BindConn(proto netsim.Protocol, port int, remote netsim.Addr, hd Handler) error {
	return r.bind(refConnKey(proto, port, remote), hd)
}
func (r *refHost) Unbind(proto netsim.Protocol, port int) {
	delete(r.bindings, refKey{proto: proto, localPort: port})
}
func (r *refHost) UnbindConn(proto netsim.Protocol, port int, remote netsim.Addr) {
	delete(r.bindings, refConnKey(proto, port, remote))
}
func (r *refHost) RebindConn(proto netsim.Protocol, port int, remote netsim.Addr, hd Handler) {
	if k := refConnKey(proto, port, remote); r.bindings[k] != nil {
		r.bindings[k] = hd
	}
}

func (r *refHost) Output(pkt *netsim.Packet) bool {
	if pkt.Src.Host == "" {
		pkt.Src.Host = r.name
	}
	if pkt.TTL == 0 {
		pkt.TTL = netsim.DefaultTTL
	}
	link := r.RouteTo(pkt.Dst.Host)
	if link == nil {
		r.stats.NoRouteDrops++
		pkt.Release()
		return false
	}
	r.stats.SentPackets++
	r.stats.SentBytes += int64(pkt.Size)
	return link.Send(pkt)
}

func (r *refHost) Receive(pkt *netsim.Packet) {
	if pkt.Dst.Host != r.name {
		switch link := r.RouteTo(pkt.Dst.Host); {
		case !r.forwarding:
			r.stats.RouteMissDrops++
		case pkt.TTL <= 1:
			r.stats.TTLExpiredDrops++
		case link == nil:
			r.stats.ForwardMissDrops++
		default:
			pkt.TTL--
			r.stats.ForwardedPackets++
			r.stats.ForwardedBytes += int64(pkt.Size)
			link.Send(pkt)
			return
		}
		pkt.Release()
		return
	}
	r.stats.ReceivedPackets++
	r.stats.ReceivedBytes += int64(pkt.Size)
	r.stats.LastReceived = r.now()
	hd, ok := r.bindings[refConnKey(pkt.Proto, pkt.Dst.Port, pkt.Src)]
	if !ok {
		hd, ok = r.bindings[refKey{proto: pkt.Proto, localPort: pkt.Dst.Port}]
	}
	if ok {
		hd.Handle(pkt)
	} else {
		r.stats.NoListenerDrops++
	}
	pkt.Release()
}

// stamp is a no-op: the reference has no ids.
func (r *refHost) stamp(*netsim.Packet) {}

// idHost is the Host under test as the interpreter drives it: the installs
// take the reference's name-keyed maps, turned into id-indexed tables the way
// a caller holding ids would build them, and stamp gives a packet the ids a
// sender of the same Network would have.
type idHost struct{ *Host }

func (h idHost) table(m map[string]*netsim.Link) RouteTable {
	var t RouteTable
	for name, l := range m {
		if l == nil {
			l = reject // a nil value is an entry in the reference: a reject
		}
		t.set(h.addrs.intern(name), l)
	}
	return t
}

func (h idHost) InstallRoutes(m map[string]*netsim.Link) int { return h.Host.InstallRoutes(h.table(m)) }

func (h idHost) InstallHierRoutes(routes, domains map[string]*netsim.Link, def *netsim.Link) int {
	return h.Host.InstallHierRoutes(h.table(routes), h.table(domains), def)
}

func (h idHost) stamp(p *netsim.Packet) { p.SetIDs(h.Resolve(p.Src.Host), h.Resolve(p.Dst.Host)) }

// testHost is what the trace interpreter drives: idHost and *refHost.
type testHost interface {
	Stats() HostStats
	EnableForwarding()
	AddRoute(string, *netsim.Link)
	SetDefaultRoute(*netsim.Link)
	SetRoute(string, *netsim.Link) bool
	RemoveRoute(string) bool
	SetDomainRoute(string, *netsim.Link) bool
	RemoveDomainRoute(string) bool
	InstallRoutes(map[string]*netsim.Link) int
	InstallHierRoutes(routes, domains map[string]*netsim.Link, def *netsim.Link) int
	RouteTo(string) *netsim.Link
	Bind(netsim.Protocol, int, Handler) error
	BindConn(netsim.Protocol, int, netsim.Addr, Handler) error
	Unbind(netsim.Protocol, int)
	UnbindConn(netsim.Protocol, int, netsim.Addr)
	RebindConn(netsim.Protocol, int, netsim.Addr, Handler)
	Output(*netsim.Packet) bool
	Receive(*netsim.Packet)
	stamp(*netsim.Packet)
}

var (
	_ testHost = idHost{}
	_ testHost = (*refHost)(nil)
)

// ---------------------------------------------------------------------------
// Trace interpreter. A trace is a byte string; each operation consumes an
// opcode and its operands. The host under test is "me.x"; destinations, domains
// and remote addresses come from small fixed universes so that operations
// collide: a route is set, repointed, shadowed by a reject entry, removed and
// looked up again within a few dozen bytes. Every operation logs what it
// returned and the host's counters afterwards. Packets come in both forms:
// stamped with host ids, as a transport that caches its peer's id or the
// previous hop leaves them, and without, as a routing agent or a test literal
// does; the reference, which has no ids, must not be able to tell.
// ---------------------------------------------------------------------------

const traceSelf = "me.x"

var (
	traceDests   = []string{"a", "b.x", "c.x", "d.y.x", "e.y.x", "f.z", traceSelf, "x"}
	traceDomains = []string{"x", "y.x", "z", "q"}
	tracePorts   = []int{80, 81, 9000}
	traceRemotes = []netsim.Addr{{Host: "a", Port: 1}, {Host: "b.x", Port: 1}, {Host: "b.x", Port: 2}}
)

// hostRec is one log entry: everything an operation let the caller observe.
type hostRec struct {
	op      string
	ret     int // changed count, link index, or 0/1 for a bool or an error
	via     int // link that carried a packet, -1 for none
	handler int // handler that was handed a packet, -1 for none
	stats   HostStats
}

type hostInterp struct {
	data  []byte
	pos   int
	sched *simtime.Scheduler
	h     testHost
	links []*netsim.Link // index len(links) stands for nil
	log   []hostRec

	via, handler int // set by the link sinks and the handlers during an op
}

func (in *hostInterp) byte() int {
	if in.pos >= len(in.data) {
		return 0
	}
	b := in.data[in.pos]
	in.pos++
	return int(b)
}

// link picks a link, or nil where the operation allows one.
func (in *hostInterp) link(allowNil bool) *netsim.Link {
	n := len(in.links)
	if allowNil {
		n++
	}
	if i := in.byte() % n; i < len(in.links) {
		return in.links[i]
	}
	return nil
}

func (in *hostInterp) linkIndex(l *netsim.Link) int {
	for i, c := range in.links {
		if c == l {
			return i
		}
	}
	return len(in.links)
}

// table builds an install argument: nil, empty, or up to three entries.
func (in *hostInterp) table(keys []string) map[string]*netsim.Link {
	n := in.byte() % 5
	if n == 4 {
		return nil
	}
	t := make(map[string]*netsim.Link)
	for i := 0; i < n; i++ {
		t[keys[in.byte()%len(keys)]] = in.link(true)
	}
	return t
}

func (in *hostInterp) handlerFor(i int) Handler {
	return HandlerFunc(func(*netsim.Packet) { in.handler = i })
}

func (in *hostInterp) packet() *netsim.Packet {
	p := netsim.NewPacket()
	p.Proto = netsim.ProtoTCP
	p.Src = traceRemotes[in.byte()%len(traceRemotes)]
	// Half the packets are for the host itself, so that demultiplexing sees
	// as many as routing.
	dst := traceSelf
	if d := in.byte() % (2 * len(traceDests)); d < len(traceDests) {
		dst = traceDests[d]
	}
	p.Dst = netsim.Addr{Host: dst, Port: tracePorts[in.byte()%len(tracePorts)]}
	p.Size = 100 + in.byte()
	p.TTL = int32(in.byte() % 3) // 0 and 1 expire at a router; Output resets 0
	return p
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (in *hostInterp) note(op string, ret int) {
	in.log = append(in.log, hostRec{op: op, ret: ret, via: in.via, handler: in.handler, stats: in.h.Stats()})
}

func (in *hostInterp) op() {
	in.via, in.handler = -1, -1
	h := in.h
	switch in.byte() % 20 {
	case 0:
		h.AddRoute(traceDests[in.byte()%len(traceDests)], in.link(false))
		in.note("AddRoute", 0)
	case 1:
		in.note("SetRoute", b2i(h.SetRoute(traceDests[in.byte()%len(traceDests)], in.link(true))))
	case 2:
		in.note("RemoveRoute", b2i(h.RemoveRoute(traceDests[in.byte()%len(traceDests)])))
	case 3:
		in.note("SetDomainRoute", b2i(h.SetDomainRoute(traceDomains[in.byte()%len(traceDomains)], in.link(true))))
	case 4:
		in.note("RemoveDomainRoute", b2i(h.RemoveDomainRoute(traceDomains[in.byte()%len(traceDomains)])))
	case 5:
		h.SetDefaultRoute(in.link(true))
		in.note("SetDefaultRoute", 0)
	case 6:
		in.note("InstallRoutes", h.InstallRoutes(in.table(traceDests)))
	case 7:
		routes, domains := in.table(traceDests), in.table(traceDomains)
		in.note("InstallHierRoutes", h.InstallHierRoutes(routes, domains, in.link(true)))
	case 8:
		i := in.byte() % 4
		in.note("Bind", b2i(h.Bind(netsim.ProtoTCP, tracePorts[in.byte()%len(tracePorts)], in.handlerFor(i)) == nil))
	case 9:
		i := in.byte() % 4
		port, remote := tracePorts[in.byte()%len(tracePorts)], traceRemotes[in.byte()%len(traceRemotes)]
		in.note("BindConn", b2i(h.BindConn(netsim.ProtoTCP, port, remote, in.handlerFor(4+i)) == nil))
	case 10:
		h.Unbind(netsim.ProtoTCP, tracePorts[in.byte()%len(tracePorts)])
		in.note("Unbind", 0)
	case 11:
		h.UnbindConn(netsim.ProtoTCP, tracePorts[in.byte()%len(tracePorts)], traceRemotes[in.byte()%len(traceRemotes)])
		in.note("UnbindConn", 0)
	case 12:
		i := in.byte() % 4
		port, remote := tracePorts[in.byte()%len(tracePorts)], traceRemotes[in.byte()%len(traceRemotes)]
		h.RebindConn(netsim.ProtoTCP, port, remote, in.handlerFor(8+i))
		in.note("RebindConn", 0)
	case 13:
		in.note("Bind(nil)", b2i(h.Bind(netsim.ProtoTCP, tracePorts[in.byte()%len(tracePorts)], nil) == nil))
	case 14:
		in.note("RouteTo", in.linkIndex(h.RouteTo(traceDests[in.byte()%len(traceDests)])))
	case 15, 16:
		p := in.packet()
		if in.byte()%2 == 1 {
			h.stamp(p)
		}
		ok := h.Output(p)
		in.sched.Run()
		in.note("Output", b2i(ok))
	case 17, 18, 19:
		p := in.packet()
		if in.byte()%2 == 1 {
			h.stamp(p)
		}
		h.Receive(p)
		in.sched.Run()
		in.note("Receive", 0)
	}
}

// runHostTrace applies a trace to one host on a scheduler of its own and
// returns the log. The first byte decides whether the host forwards.
func runHostTrace(data []byte, build func(*simtime.Scheduler) testHost) []hostRec {
	in := &hostInterp{data: data, sched: simtime.NewScheduler()}
	in.h = build(in.sched)
	for i := 0; i < 3; i++ {
		i := i
		in.links = append(in.links, netsim.NewLink(in.sched, netsim.LinkConfig{Name: fmt.Sprint("l", i)},
			netsim.ReceiverFunc(func(p *netsim.Packet) { in.via = i; p.Release() })))
	}
	if in.byte()%2 == 1 {
		in.h.EnableForwarding()
	}
	for in.pos < len(in.data) {
		in.sched.RunFor(time.Duration(in.byte()%4) * time.Millisecond)
		in.op()
	}
	return in.log
}

// checkHostTrace is the differential check shared by the seeded test and the
// fuzz target. The Host starts as Network.Host and NewHost leave it: no table
// made yet.
func checkHostTrace(t testing.TB, data []byte) {
	t.Helper()
	got := runHostTrace(data, func(s *simtime.Scheduler) testHost {
		h := NewHost(traceSelf, s)
		if h.tables != nil || h.bindings != nil {
			t.Fatal("a new host has made a table")
		}
		return idHost{h}
	})
	want := runHostTrace(data, func(s *simtime.Scheduler) testHost { return newRefHost(traceSelf, s.Now) })
	if len(got) != len(want) {
		t.Fatalf("trace %x: Host logged %d records, reference %d", data, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace %x: record %d:\n    Host      %+v\n    reference %+v", data, i, got[i], want[i])
		}
	}
}

// TestHostMatchesReference holds Host, whose tables are made by their first
// insert and keyed by host ids, to the name-keyed reference with eager maps,
// over the demultiplexing traces and seeded random ones. Hand-made mutants of
// node.go and addr.go it was seen to catch, 11 of 11: the route tables never
// made (a panic); InstallRoutes keeping the old table when handed an empty
// one; the install's diff not counting removed entries; SetRoute storing a
// reject entry as no entry; the lookup skipping the suffix chain of a known
// destination, or of a name without an id; a suffix chain that skips a
// level; Receive trusting an unstamped packet's zero ids; and the
// demultiplexing memory surviving a Bind, a RebindConn or an UnbindConn.
func TestHostMatchesReference(t *testing.T) {
	for _, data := range demuxTraces {
		checkHostTrace(t, data)
	}
	rng := rand.New(rand.NewSource(24))
	for trace := 0; trace < 3000; trace++ {
		data := make([]byte, 1+rng.Intn(120))
		rng.Read(data)
		checkHostTrace(t, data)
	}
}

// demuxTraces each deliver a packet, change the binding it was demultiplexed
// to, and deliver its twin: a Bind of a wildcard listener followed by a
// BindConn (a SetRoute first gives the remote its id), a BindConn followed by
// a RebindConn, and one followed by an UnbindConn. The host remembers its last demultiplexing answer, and each
// change must make it forget; random traces rarely line the three operations
// up on one port and remote.
var demuxTraces = [][]byte{
	{0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0},
	{0, 0, 9, 0, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0},
	{0, 0, 9, 0, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0, 0, 11, 0, 0, 0, 17, 0, 8, 0, 0, 0, 0},
}

// FuzzHostOps is the same differential check over fuzzer-chosen traces.
func FuzzHostOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 7, 4, 4, 2, 0, 14, 1})
	for _, data := range demuxTraces {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("trace longer than any sequence worth shrinking")
		}
		checkHostTrace(t, data)
	})
}
