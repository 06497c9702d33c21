// Package dynamics is the vocabulary of network dynamics: scheduled events
// that change the network while a simulation is running. The Congestion
// Manager's value proposition is adaptation, so scenarios must be able to
// declare the churn the CM adapts to — links failing and recovering,
// bandwidth renegotiating, loss turning bursty, hosts moving and their CMs
// restarting — instead of freezing every parameter at Build time.
//
// An Event names a link of the scenario's topology (by index into
// Spec.Links) or a host, a virtual time and a change to apply; a Generator
// expands into Events; a Record is what one Event did. The scenario layer
// fires the events: those with At <= 0 at Build, before any packet is sent,
// so static asymmetries can be declared as time-zero events, and the rest at
// their virtual times, with the simulation stopped before any same-instant
// event has run.
//
// Everything is deterministic: events fire at declared virtual times in
// declaration order, loss models draw from per-link seeded sources, and the
// records are value types — a scenario with events still produces
// byte-identical results whether it runs serially or in a parallel batch.
package dynamics

import (
	"fmt"
	"time"

	"repro/internal/netsim"
)

// Event kinds.
const (
	// LinkDown takes the target link out of service: arriving packets are
	// dropped (DownDrops), queued packets are held, and routes are
	// recomputed around the outage.
	LinkDown = "link-down"
	// LinkUp returns the link to service and recomputes routes.
	LinkUp = "link-up"
	// SetBandwidth changes the link's serialisation rate to Bandwidth.
	SetBandwidth = "set-bandwidth"
	// SetGilbert installs (or with a nil Gilbert field, removes) the
	// two-state bursty loss model.
	SetGilbert = "set-gilbert"
	// SetRouteFaults configures control-plane fault injection on the target
	// link: routing-protocol messages sent over it are dropped with
	// probability DropRate, delayed by Delay with probability DelayRate, and
	// duplicated with probability DuplicateRate. It applies to the routing
	// control plane only (RouteSync: "protocol"); data traffic is untouched.
	SetRouteFaults = "set-route-faults"
)

// Host-level event kinds. These name a host (Event.Host) instead of a link:
// the scenario layer maps them onto Congestion Manager state wipes, libcm
// notification faults and link/routing changes. See docs/ROBUSTNESS.md.
const (
	// CMRestart wipes the named host's Congestion Manager state mid-run —
	// macroflows, flow table, scheduler rings — and bumps its epoch. The CM
	// then tells each client that held a flow, which re-syncs inside the
	// event (re-open, re-register, re-request).
	CMRestart = "cm-restart"
	// SetNotifyFaults configures the libcm notification path of the named
	// host: DeliverSend/DeliverUpdate callbacks are dropped with probability
	// DropRate or delayed by Delay with probability DelayRate, drawn from a
	// seeded per-host fault RNG.
	SetNotifyFaults = "set-notify-faults"
	// HostMove is a mobile handoff: the named host detaches (all its links go
	// down, in-flight packets die as route misses), macroflow congestion
	// state to and from the host is discarded — the new path shares nothing
	// with the old one, so transfers restart from the initial window — and
	// the host re-attaches Outage later (the scenario layer expands the event
	// into a move/attach pair). Routes recompute live at both edges.
	HostMove = "host-move"
	// HostAttach re-attaches a moved host: its links come back up and routes
	// recompute. It is normally generated from a HostMove's Outage rather
	// than declared directly.
	HostAttach = "host-attach"
)

// Directions select which half of a duplex link an event applies to.
const (
	// DirBoth (the default) applies the event to both directions.
	DirBoth = "both"
	// DirForward applies the event to the A->B direction of the link.
	DirForward = "fwd"
	// DirReverse applies the event to the B->A direction.
	DirReverse = "rev"
)

// Event is one scheduled change to the network. Exactly the parameter named
// by Kind is consulted; the others are ignored.
type Event struct {
	// At is the virtual time the event fires. At <= 0 fires at Build, before
	// any traffic.
	At time.Duration `json:"at"`
	// Kind is one of the event-kind constants.
	Kind string `json:"kind"`
	// Link indexes the scenario's Links slice (link events only).
	Link int `json:"link"`
	// Direction is DirBoth (default), DirForward or DirReverse.
	Direction string `json:"direction,omitempty"`
	// Host names the target of a host-level event (CMRestart,
	// SetNotifyFaults, HostMove, HostAttach); Link is ignored for these.
	Host string `json:"host,omitempty"`

	Bandwidth netsim.Bandwidth       `json:"bandwidth,omitempty"`
	Delay     time.Duration          `json:"delay,omitempty"`
	Gilbert   *netsim.GilbertElliott `json:"gilbert,omitempty"`

	// DropRate and DelayRate are the SetNotifyFaults probabilities (in
	// [0, 1]) of dropping or delaying one libcm callback delivery; Delay is
	// the added latency of a delayed delivery. SetRouteFaults reuses all
	// three for routing messages on the target link, plus DuplicateRate.
	DropRate  float64 `json:"drop_rate,omitempty"`
	DelayRate float64 `json:"delay_rate,omitempty"`
	// DuplicateRate is the SetRouteFaults probability of delivering one
	// routing message twice.
	DuplicateRate float64 `json:"duplicate_rate,omitempty"`

	// Outage is how long a HostMove's host stays detached (default 200 ms).
	Outage time.Duration `json:"outage,omitempty"`
}

// HostEvent reports whether the event targets a host rather than a link.
func (e Event) HostEvent() bool {
	switch e.Kind {
	case CMRestart, SetNotifyFaults, HostMove, HostAttach:
		return true
	}
	return false
}

// Validate checks the event against a topology with nlinks links. Host
// membership of host-level events is the owner's to check (the dynamics layer
// does not know the node set).
func (e Event) Validate(nlinks int) error {
	if e.At < 0 {
		return fmt.Errorf("dynamics: event at %v in the past", e.At)
	}
	if e.HostEvent() {
		if e.Host == "" {
			return fmt.Errorf("dynamics: %s event needs a host", e.Kind)
		}
		switch e.Kind {
		case SetNotifyFaults:
			if e.DropRate < 0 || e.DropRate > 1 {
				return fmt.Errorf("dynamics: %s event drop rate %v out of [0,1]", e.Kind, e.DropRate)
			}
			if e.DelayRate < 0 || e.DelayRate > 1 {
				return fmt.Errorf("dynamics: %s event delay rate %v out of [0,1]", e.Kind, e.DelayRate)
			}
			if e.Delay < 0 {
				return fmt.Errorf("dynamics: %s event needs delay >= 0", e.Kind)
			}
		case HostMove:
			if e.At <= 0 {
				return fmt.Errorf("dynamics: %s event must be scheduled mid-run (at > 0)", e.Kind)
			}
			if e.Outage < 0 {
				return fmt.Errorf("dynamics: %s event needs outage >= 0", e.Kind)
			}
		}
		return nil
	}
	if e.Link < 0 || e.Link >= nlinks {
		return fmt.Errorf("dynamics: event link %d out of range [0,%d)", e.Link, nlinks)
	}
	switch e.Direction {
	case "", DirBoth, DirForward, DirReverse:
	default:
		return fmt.Errorf("dynamics: event direction %q unknown", e.Direction)
	}
	switch e.Kind {
	case LinkDown, LinkUp:
	case SetBandwidth:
		if e.Bandwidth <= 0 {
			return fmt.Errorf("dynamics: %s event needs bandwidth > 0", e.Kind)
		}
	case SetGilbert:
		if e.Gilbert != nil {
			if err := e.Gilbert.Validate(); err != nil {
				return fmt.Errorf("dynamics: %s event: %w", e.Kind, err)
			}
		}
	case SetRouteFaults:
		if e.DropRate < 0 || e.DropRate > 1 {
			return fmt.Errorf("dynamics: %s event drop rate %v out of [0,1]", e.Kind, e.DropRate)
		}
		if e.DelayRate < 0 || e.DelayRate > 1 {
			return fmt.Errorf("dynamics: %s event delay rate %v out of [0,1]", e.Kind, e.DelayRate)
		}
		if e.DuplicateRate < 0 || e.DuplicateRate > 1 {
			return fmt.Errorf("dynamics: %s event duplicate rate %v out of [0,1]", e.Kind, e.DuplicateRate)
		}
		if e.Delay < 0 {
			return fmt.Errorf("dynamics: %s event needs delay >= 0", e.Kind)
		}
	default:
		return fmt.Errorf("dynamics: event kind %q unknown", e.Kind)
	}
	return nil
}

// Record is the executed outcome of one event, reported in scenario results.
// It contains only value types and serialises deterministically.
type Record struct {
	Event
	// Fired is false for events scheduled past the end of the run.
	Fired bool `json:"fired"`
	// PastEnd flags an event scheduled after the run's horizon (At >
	// duration): it can never fire, which is almost always a spec mistake.
	// The scenario layer sets it at Build from Spec.Duration.
	PastEnd bool `json:"past_end,omitempty"`
	// RoutesChanged counts routing-table entries that changed across all
	// hosts when the event triggered a route recomputation.
	RoutesChanged int `json:"routes_changed,omitempty"`
	// FlowsWiped counts CM flows discarded by a host-level event (cm-restart
	// wipes, host-move discards).
	FlowsWiped int `json:"flows_wiped,omitempty"`
}

// Apply performs a link event's change on one directional link. Host events
// and SetRouteFaults change no link and are ignored.
func (ev Event) Apply(l *netsim.Link) {
	switch ev.Kind {
	case LinkDown:
		l.SetDown(true)
	case LinkUp:
		l.SetDown(false)
	case SetBandwidth:
		l.SetBandwidth(ev.Bandwidth)
	case SetGilbert:
		l.SetGilbert(ev.Gilbert)
	}
}
