// Package dynamics is the network-dynamics subsystem of the reproduction: a
// deterministic timeline of scheduled events that change the network while a
// simulation is running. The Congestion Manager's value proposition is
// adaptation, so scenarios must be able to declare the churn the CM adapts
// to — links failing and recovering, bandwidth and delay renegotiating,
// loss turning bursty — instead of freezing every parameter at Build time.
//
// An Event names a link of the scenario's topology (by index into
// Spec.Links), a virtual time and a change to apply. Events with At <= 0 are
// applied during installation, before any packet is sent, so static
// asymmetries can be declared as time-zero events; the owner fires the rest
// by calling Advance at their virtual times, with the simulation stopped
// before any same-instant event has run. Link up/down events additionally trigger
// the owner's route-recomputation hook, and each event's outcome (fired,
// routes changed) is recorded so results can report the timeline that
// actually executed.
//
// Everything is deterministic: events fire at declared virtual times in
// declaration order, loss models draw from per-link seeded sources, and the
// records are value types — a scenario with a timeline still produces
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
	// SetDelay changes the link's propagation delay to Delay.
	SetDelay = "set-delay"
	// SetLoss changes the link's independent Bernoulli drop rate to LossRate.
	SetLoss = "set-loss"
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

// Host-level event kinds. These name a host (Event.Host) instead of a link
// and are applied through the owner's HostHook: the scenario layer maps them
// onto Congestion Manager state wipes, libcm notification faults and
// link/routing changes. See docs/ROBUSTNESS.md.
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
	// down, in-flight packets die as route misses), macroflow state to and
	// from the host is discarded or kept per Policy, and the host re-attaches
	// Outage later (the scenario layer expands the event into a move/attach
	// pair). Routes recompute live at both edges.
	HostMove = "host-move"
	// HostAttach re-attaches a moved host: its links come back up and routes
	// recompute. It is normally generated from a HostMove's Outage rather
	// than declared directly.
	HostAttach = "host-attach"
)

// Host-move policies.
const (
	// PolicyDiscard (the default) throws away macroflow congestion state to
	// and from the moved host: the new path shares nothing with the old one,
	// so transfers restart from the initial window.
	PolicyDiscard = "discard"
	// PolicyMigrate keeps the macroflow state across the move: the learned
	// window and RTT survive (the optimistic same-subnet handoff).
	PolicyMigrate = "migrate"
	// PolicyRenumber discards macroflow state like PolicyDiscard and
	// additionally gives the host a new name (Event.NewName) when it
	// re-attaches: the host changed address, so routes to the old name age
	// out through the routing protocol rather than by oracle rewrite.
	// Requires RouteSync: "protocol".
	PolicyRenumber = "renumber"
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
	// At is the virtual time the event fires. At <= 0 fires during Timeline
	// installation, before any traffic.
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
	LossRate  float64                `json:"loss_rate,omitempty"`
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

	// Policy is PolicyDiscard (default), PolicyMigrate or PolicyRenumber for
	// a HostMove; Outage is how long the moved host stays detached (default
	// 200 ms). NewName is the renumbered host's post-move name
	// (PolicyRenumber only).
	Policy  string        `json:"policy,omitempty"`
	Outage  time.Duration `json:"outage,omitempty"`
	NewName string        `json:"new_name,omitempty"`
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
			switch e.Policy {
			case "", PolicyDiscard, PolicyMigrate:
				if e.NewName != "" {
					return fmt.Errorf("dynamics: %s event: new_name requires the %s policy", e.Kind, PolicyRenumber)
				}
			case PolicyRenumber:
				if e.NewName == "" {
					return fmt.Errorf("dynamics: %s event with the %s policy needs new_name", e.Kind, PolicyRenumber)
				}
				if e.NewName == e.Host {
					return fmt.Errorf("dynamics: %s event: new_name %q equals the old name", e.Kind, e.NewName)
				}
			default:
				return fmt.Errorf("dynamics: %s event policy %q unknown", e.Kind, e.Policy)
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
	case SetDelay:
		if e.Delay < 0 {
			return fmt.Errorf("dynamics: %s event needs delay >= 0", e.Kind)
		}
	case SetLoss:
		if e.LossRate < 0 || e.LossRate > 1 {
			return fmt.Errorf("dynamics: %s event loss rate %v out of [0,1]", e.Kind, e.LossRate)
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

// topologyEvent reports whether the event changes link reachability and so
// requires a route recomputation.
func (e Event) topologyEvent() bool { return e.Kind == LinkDown || e.Kind == LinkUp }

// Record is the executed outcome of one event, reported in scenario results.
// It contains only value types and serialises deterministically.
type Record struct {
	Event
	// Fired is false for events scheduled past the end of the run.
	Fired bool `json:"fired"`
	// PastEnd flags an event scheduled after the run's horizon (At >
	// duration): it can never fire, which is almost always a spec mistake.
	// Set by SetHorizon; the scenario layer calls it with Spec.Duration.
	PastEnd bool `json:"past_end,omitempty"`
	// RoutesChanged counts routing-table entries that changed across all
	// hosts when the event triggered a route recomputation.
	RoutesChanged int `json:"routes_changed,omitempty"`
	// FlowsWiped counts CM flows discarded by a host-level event (cm-restart
	// wipes, host-move discards).
	FlowsWiped int `json:"flows_wiped,omitempty"`
}

// Resolver maps an event's (link index, direction) to the directional links
// it applies to. The scenario layer supplies one backed by its duplexes.
type Resolver func(link int, direction string) []*netsim.Link

// TopologyHook is invoked after a link up/down event has been applied; it
// recomputes and installs routes, returning the number of changed entries.
type TopologyHook func(ev Event) int

// HostOutcome reports what a host-level event did, for the execution record.
type HostOutcome struct {
	RoutesChanged int
	FlowsWiped    int
}

// HostHook applies one host-level event (CMRestart, SetNotifyFaults,
// HostMove, HostAttach). The scenario layer supplies one that reaches the
// host's Congestion Manager, libcm fault injector and links; a timeline with
// no hook records host events as fired no-ops.
type HostHook func(ev Event) HostOutcome

// RouteFaultHook applies a SetRouteFaults event. The scenario layer supplies
// one that reaches the routing agents on the link's endpoints; a timeline
// with no hook records the event as a fired no-op (oracle-mode runs have no
// control plane to perturb).
type RouteFaultHook func(ev Event)

// Timeline owns a scenario's scheduled events and their execution records.
type Timeline struct {
	resolve      Resolver
	onChange     TopologyHook
	onHost       HostHook
	onRouteFault RouteFaultHook
	recs         []Record
}

// NewTimeline builds a timeline over the given events. resolve is required;
// onChange may be nil when the owner has no routing to maintain. Install
// applies the time-zero events; the owner fires the rest by calling Advance
// at the right virtual times (the scenario executor does this at its
// synchronization barriers).
func NewTimeline(events []Event, resolve Resolver, onChange TopologyHook) *Timeline {
	if resolve == nil {
		panic("dynamics: NewTimeline requires a resolver")
	}
	t := &Timeline{resolve: resolve, onChange: onChange}
	t.recs = make([]Record, len(events))
	for i, ev := range events {
		t.recs[i] = Record{Event: ev}
	}
	return t
}

// SetHostHook installs the host-level event handler. It must be called
// before Install (host events applied at installation go through the hook).
func (t *Timeline) SetHostHook(h HostHook) { t.onHost = h }

// SetRouteFaultHook installs the SetRouteFaults handler. Like SetHostHook it
// must be called before Install.
func (t *Timeline) SetRouteFaultHook(h RouteFaultHook) { t.onRouteFault = h }

// SetHorizon flags every event scheduled after the run's end (At > d) as
// PastEnd in its execution record: such events sit silently unfired, which
// the records now make visible instead of invisible.
func (t *Timeline) SetHorizon(d time.Duration) {
	for i := range t.recs {
		if t.recs[i].At > d {
			t.recs[i].PastEnd = true
		}
	}
}

// Install applies every event with At <= 0, before any traffic, so time-zero
// events configure the network before the first packet. Install must be
// called exactly once, after the hooks are set.
func (t *Timeline) Install() {
	for i := range t.recs {
		if t.recs[i].At <= 0 {
			t.fire(i)
		}
	}
}

// Advance fires every not-yet-fired event with At <= now, in declaration
// order. An event past the horizon never fires, however far now runs.
func (t *Timeline) Advance(now time.Duration) {
	for i := range t.recs {
		if r := &t.recs[i]; !r.Fired && !r.PastEnd && r.At <= now {
			t.fire(i)
		}
	}
}

// Next returns the instant of the earliest event Advance would still fire;
// ok is false when there is none.
func (t *Timeline) Next() (at time.Duration, ok bool) {
	for i := range t.recs {
		if r := &t.recs[i]; !r.Fired && !r.PastEnd && (!ok || r.At < at) {
			at, ok = r.At, true
		}
	}
	return at, ok
}

// fire applies event i to its resolved links (or, for a host-level event,
// through the host hook) and records the outcome.
func (t *Timeline) fire(i int) {
	rec := &t.recs[i]
	rec.Fired = true
	if rec.HostEvent() {
		if t.onHost != nil {
			out := t.onHost(rec.Event)
			rec.RoutesChanged = out.RoutesChanged
			rec.FlowsWiped = out.FlowsWiped
		}
		return
	}
	if rec.Kind == SetRouteFaults {
		// Route faults live in the control-plane agents, not the link; the
		// owner's hook maps (link, direction) onto the transmitting agents.
		if t.onRouteFault != nil {
			t.onRouteFault(rec.Event)
		}
		return
	}
	dir := rec.Direction
	if dir == "" {
		dir = DirBoth
	}
	for _, l := range t.resolve(rec.Link, dir) {
		applyToLink(rec.Event, l)
	}
	if rec.topologyEvent() && t.onChange != nil {
		rec.RoutesChanged = t.onChange(rec.Event)
	}
}

// applyToLink performs the event's change on one directional link.
func applyToLink(ev Event, l *netsim.Link) {
	switch ev.Kind {
	case LinkDown:
		l.SetDown(true)
	case LinkUp:
		l.SetDown(false)
	case SetBandwidth:
		l.SetBandwidth(ev.Bandwidth)
	case SetDelay:
		l.SetDelay(ev.Delay)
	case SetLoss:
		l.SetLossRate(ev.LossRate)
	case SetGilbert:
		l.SetGilbert(ev.Gilbert)
	}
}

// Records returns a copy of the per-event execution records, in declaration
// order.
func (t *Timeline) Records() []Record {
	return append([]Record(nil), t.recs...)
}
