package node

import (
	"strings"

	"repro/internal/netsim"
)

// Addressing. Every host name, and every dotted suffix of one, has a dense
// int32 id in an address table, dealt in the order the names first appear and
// counting from 1; 0 means "unresolved". A Network keeps one table for all of
// its hosts, and a standalone host (NewHost) one of its own, so ids are only
// meaningful between hosts of one Network. Names are looked up on the control
// path — a host is created, a route is set by name, a connection binds — and
// for a packet that reaches a host unstamped; the packet path routes, forwards
// and demultiplexes on the ids a packet carries (netsim.Packet.SetIDs).
//
// A table is written only when a name is new to it: a topology interns all of
// its names while it is assembled, so the shards of a sharded run only read
// it.
type addrTable struct {
	ids map[string]int32
	// hosts[id] is the host of that name, nil for a name that is no host (a
	// routing domain, or a destination only a route or a binding mentions).
	hosts []*Host
	// suffix[id] is the id of the name's longest proper dotted suffix ("e1.p2"
	// for "h3.e1.p2"), 0 for a name without a dot: the chain a hierarchical
	// router walks through its domain table.
	suffix []int32
}

// newAddrTable returns an empty table with room for names names; id 0 is
// taken, by no name. The zero addrTable is empty too, and makes itself on
// its first intern.
func newAddrTable(names int) addrTable {
	return addrTable{
		ids:    make(map[string]int32, names),
		hosts:  make([]*Host, 1, names+1),
		suffix: make([]int32, 1, names+1),
	}
}

// intern returns name's id, dealing one to it, and first to its suffixes,
// when it has none.
func (t *addrTable) intern(name string) int32 {
	if id, ok := t.ids[name]; ok {
		return id
	}
	if t.ids == nil {
		*t = newAddrTable(1)
	}
	var suffix int32
	if dot := strings.IndexByte(name, '.'); dot >= 0 {
		suffix = t.intern(name[dot+1:])
	}
	id := int32(len(t.hosts))
	t.ids[name] = id
	t.hosts = append(t.hosts, nil)
	t.suffix = append(t.suffix, suffix)
	return id
}

// lookup returns name's id, 0 when it has none. It never writes.
func (t *addrTable) lookup(name string) int32 { return t.ids[name] }

// suffixOf returns the id of the longest proper dotted suffix of name that
// has one: where a name without an id joins the suffix chains.
func (t *addrTable) suffixOf(name string) int32 {
	for rest := name; ; {
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			return 0
		}
		rest = rest[dot+1:]
		if id, ok := t.ids[rest]; ok {
			return id
		}
	}
}

// RouteTable is a routing table indexed by id (Host.ID, Network.ID): the
// entry for id i is Links[i-Base], nil for none. An exact-routed host's table
// spans every id from 0; a hierarchical router's spans the ids of its
// children or domains only, which sit close together because a topology
// names a router's children together. The zero value is the empty table.
type RouteTable struct {
	Base  int32
	Links []*netsim.Link
}

// routeTables are the two tables of a host that has routes: exact entries by
// destination id and name-suffix (domain) entries by suffix id.
type routeTables struct {
	exact, domains RouteTable
}

// reject is the entry SetRoute and SetDomainRoute store for a nil link: it
// ends the lookup like any entry, and the lookup reports it as nil.
var reject = new(netsim.Link)

// get returns id's entry, nil for none.
func (t *RouteTable) get(id int32) *netsim.Link {
	if i := uint32(id - t.Base); i < uint32(len(t.Links)) {
		return t.Links[i]
	}
	return nil
}

// set points id's entry at l. An id outside the span widens it by at least
// the old span, so a run of inserts in any order costs amortised constant
// time each.
func (t *RouteTable) set(id int32, l *netsim.Link) {
	if i := uint32(id - t.Base); i < uint32(len(t.Links)) {
		t.Links[i] = l
		return
	}
	lo, hi := id, id+1
	if n := int32(len(t.Links)); n > 0 {
		if id < t.Base {
			lo, hi = max(1, min(id, t.Base-n)), t.Base+n
		} else {
			lo, hi = t.Base, max(id+1, t.Base+2*n)
		}
	}
	links := make([]*netsim.Link, hi-lo)
	if len(t.Links) > 0 {
		copy(links[t.Base-lo:], t.Links)
	}
	t.Base, t.Links = lo, links
	t.Links[id-lo] = l
}

// remove deletes id's entry, reporting whether there was one.
func (t *RouteTable) remove(id int32) bool {
	if t.get(id) == nil {
		return false
	}
	t.Links[id-t.Base] = nil
	return true
}

// swap replaces *t with next and returns how many entries differ: added,
// removed or repointed.
func swap(t *RouteTable, next RouteTable) int {
	changed := 0
	for i, l := range next.Links {
		if l != nil && t.get(next.Base+int32(i)) != l {
			changed++
		}
	}
	for i, l := range t.Links {
		if l != nil && next.get(t.Base+int32(i)) == nil {
			changed++
		}
	}
	*t = next
	return changed
}
