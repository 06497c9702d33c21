// Package simtime provides a deterministic discrete-event scheduler used as
// the virtual clock for the Congestion Manager simulation substrate.
//
// The paper's evaluation ran on a physical testbed; this package replaces
// wall-clock time with a virtual clock so that every experiment in the
// reproduction is deterministic and runs in milliseconds of real time.
//
// The central type is Scheduler, the only clock: every layer above it reads
// Now from it and schedules on it. There are four ways onto the queue — At
// and After for a plain func(), Schedule for a callback that takes its
// argument and carries an event Kind, and InjectAt for a caller that names
// the whole position of the event — and one timer, EventTimer, which its
// owner embeds. Events fire in one total order, the same for
// every scheduler and every event: (time, stamp, key, sub, seq). The stamp is
// the virtual time the event was *inserted*, key and sub are optional
// caller-chosen tie-breaks, and seq is the scheduling order, so plain
// scheduling is FIFO among equal timestamps. The middle keys are what lets a
// sharded simulation inject events from another scheduler (InjectAt) into
// exactly the position a single-scheduler run would have given them: the
// stamp recovers the insertion instant, and the sort key breaks the residual
// tie between events inserted at the same instant on different shards, where
// no insertion order exists that both runs could observe.
//
// The scheduler is the inner loop of every experiment — each packet-hop
// crosses it once — and is built for that: the queue is a 4-ary min-heap of
// 16-byte {time, *Event} entries, so ordering is decided on the timestamps in
// the array and an event is dereferenced only when timestamps tie; the
// earliest of four siblings is chosen with conditional moves; the root slot of
// a firing event stays open for the first event its callback schedules (Step);
// a pending timer is re-keyed in place (EventTimer.Reset); fired and cancelled
// events are recycled through a freelist so steady-state scheduling allocates
// nothing; and Cancel removes the event from the heap immediately instead of
// leaking it until its timestamp. docs/PERF.md has the measurements.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Event is a handle to a scheduled callback.
//
// Lifetime: a handle is valid from the scheduling call until the event fires
// or is cancelled. Once either has happened the Event may be recycled for a
// later scheduling, so callers must not retain or Cancel a handle past that
// point (EventTimer wraps this protocol for the common rearm pattern).
type Event struct {
	order
	// index is the heap position while queued, notQueued after firing or
	// recycling, and canceledIdx once Cancel has run (folding the canceled
	// flag into the index saves a separate bool).
	index int32
	// kind classifies the event for the optional profiler (KindOther when
	// untagged); it packs into padding next to index, which keeps the Event at
	// 72 bytes (TestEventAndEntrySizes).
	kind Kind
	s    *Scheduler
	// fn(arg) is the callback, the one shape of every event: a pointer-shaped
	// arg boxes into the interface for free, so hot paths (one event per
	// packet) pass their object with a package-level fn and allocate nothing.
	fn  func(any)
	arg any
}

// order is an event's position in the firing order: most significant key
// first, (at, stamp, key, sub, seq). The keys lie together in 32 bytes, so a
// tie on at reads one cache line of the event, or two for the quarter of
// events whose 80-byte allocation puts them across a line boundary.
type order struct {
	at time.Duration
	// stamp is the virtual time the event counts as inserted: Now for local
	// scheduling, the caller's choice for InjectAt, so that an event computed
	// early or on another scheduler sorts where an insertion at that instant
	// would have placed it.
	stamp time.Duration
	// seq is the scheduler-wide scheduling order, the last tie-break.
	seq uint64
	// keysub is key<<32 | sub, the two caller-chosen tie-breaks among events
	// scheduled at the same (at, stamp), compared as one word; zero for
	// ordinary scheduling. Keyed events exist for sharded determinism: two
	// same-instant insertions on different schedulers have no common
	// insertion order, so the key (derived from stable content — in practice
	// the delivering link's identity) supplies one that serial and sharded
	// runs agree on. The sub-sequence orders same-key events: in practice it
	// is the link-local delivery sequence netsim assigns per link direction,
	// which makes the agreement on hand-up order explicit instead of leaning
	// on seq.
	keysub uint64
}

// less is the firing order.
func (a *order) less(b *order) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return tieLess(a, b)
}

const (
	notQueued   = -1
	canceledIdx = -2
)

// Time returns the virtual time at which the event is scheduled to run.
func (e *Event) Time() time.Duration { return e.at }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.index == canceledIdx }

// Cancel prevents the event from running and removes it from the scheduler's
// queue immediately, so cancelled events cost nothing until their timestamp.
// Cancelling an event that has already run or been cancelled is a no-op.
func (e *Event) Cancel() {
	if e.index == canceledIdx {
		return
	}
	if e.index >= 0 && e.s != nil {
		e.s.removeAt(int(e.index))
		e.s.recycle(e)
	}
	e.index = canceledIdx
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run in virtual time on a single
// goroutine, which mirrors the paper's single-host kernel module and keeps the
// reproduction deterministic.
type Scheduler struct {
	now time.Duration
	// events is a 4-ary min-heap ordered by (at, stamp, key, sub, seq). While
	// open is set, slot 0 is not part of it (see Step).
	events []entry
	// open is set while Step runs a callback: the fired event has left slot 0
	// but nothing has filled it yet. The sub-heaps under slots 1..4 stay valid
	// on their own, the first insertion takes the slot with a single
	// sift-down, and nothing else may move an entry into it (siftUp stops
	// below it). Every path that reads events[0] goes through head, which
	// closes a slot left open, so the flag never outlives the callback.
	open     bool
	free     []*Event // recycled events; bounds steady-state allocation at zero
	seq      uint64
	executed uint64
	// prof, when non-nil, receives per-kind wall-clock aggregates for every
	// fired event (see EnableProfile). Disarmed cost: one nil check in Step.
	prof *Profile
	// passed holds the points of the firing order reached so far that Fired
	// still needs (see pass): orders strictly decreasing, begun nondecreasing.
	passed []point
}

// A point is a position in the firing order the scheduler has reached: the
// order of an event that began firing, or the bound a run loop stopped at,
// and begun, the seq counter at that moment. An event whose seq is below
// begun existed there, and fired before it if it is less.
type point struct {
	order
	begun uint64
}

// The bounds the run loops stop at: everything at or before t has fired
// (RunUntil), or everything before t and nothing at t (RunUntilBefore,
// AdvanceTo). Run and a Step that finds nothing pending reach the end of time.
func through(t time.Duration) order {
	return order{at: t, stamp: math.MaxInt64, keysub: math.MaxUint64, seq: math.MaxUint64}
}

func before(t time.Duration) order { return order{at: t, stamp: math.MinInt64} }

// entry is one slot of the heap array. The timestamp sits beside the pointer
// so that the four children of a node are ordered without touching the
// events; only entries that tie on at are dereferenced. The four are 64 bytes
// but not one cache line: the array's base lies 8 bytes past a line (the
// allocation header, once it holds 64 entries or more), so slot 1 starts 24
// bytes into one and every group of siblings spans two.
type entry struct {
	at time.Duration
	ev *Event
}

// NewScheduler returns a scheduler with the virtual clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events. Cancelled events are removed
// eagerly and do not count, and neither does an event whose callback is
// running.
func (s *Scheduler) Len() int { return len(s.events) - b2i(s.open) }

// Executed returns the total number of events that have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Reserve takes the seq an event inserted now would get, without inserting
// one. A caller that keeps an event to itself — it knows the event's key and
// will only ever ask Fired about it — reserves the seq when it would have
// scheduled the event, so the event sorts exactly where that insertion would
// have put it.
func (s *Scheduler) Reserve() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

// Fired reports whether an event keyed (at, stamp, key, sub) with sequence
// number seq — one that was never inserted, only reserved — would have fired
// by now, had it been inserted when seq was taken. It has if the scheduler
// has reached a point after it in the firing order that began after seq was
// taken: inside a callback, the firing event and every event fired before it
// since; after RunUntil(t), every instant up to t inclusive; at a barrier
// (RunUntilBefore(t) or AdvanceTo(t)), everything before t and nothing at t.
// An event reserved during the running callback has therefore not fired,
// whatever its key.
//
// When it has fired, after is the seq that an event inserted as it fired
// compares as: the successor of a chain of such events (a link's
// transmitter, whose every tx-done starts the next packet) passes it to the
// next Fired. It is exact when the owner asks at every point where the
// answer could have changed; an owner that asks less often is exact for
// every event that is not keyed (0, sub) like its own.
func (s *Scheduler) Fired(at, stamp time.Duration, key, sub uint32, seq uint64) (after uint64, ok bool) {
	v := order{at: at, stamp: min(stamp, at), keysub: uint64(key)<<32 | uint64(sub), seq: seq}
	for i := range s.passed {
		if p := &s.passed[i]; p.begun > seq {
			return p.begun - 1, v.less(&p.order)
		}
	}
	return 0, false
}

// pass records that the scheduler has reached o. Of the points reached since
// any given seq, only the latest in the order matters to Fired, so o
// replaces every earlier point it is not below; the list is one point long
// except while the events of one instant fire out of key order (an event
// inserted with a key below the running one's fires after it).
func (s *Scheduler) pass(o order) {
	n := len(s.passed)
	for n > 0 && !o.less(&s.passed[n-1].order) {
		n--
	}
	s.passed = append(s.passed[:n], point{o, s.seq})
}

// ---------------------------------------------------------------------------
// 4-ary min-heap of entries. The pending set is small (tens to a thousand
// events), so a sift costs what its compares mispredict and its loads miss,
// not its depth: the four timestamps of a level lie side by side in the array
// (two cache lines, see entry), and their minimum is chosen on at with
// conditional moves.
// ---------------------------------------------------------------------------

// tieLess orders two events that share a timestamp by the rest of the key:
// insertion stamp, sort key, sub-sequence, then scheduling order.
func tieLess(a, b *order) bool {
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.keysub != b.keysub {
		return a.keysub < b.keysub
	}
	return a.seq < b.seq
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return tieLess(&a.ev.order, &b.ev.order)
}

// siftUp places e at slot i or above, moving later ancestors down. It never
// moves an entry into an open root.
func (s *Scheduler) siftUp(i int, e entry) {
	h := s.events
	top := 0
	if s.open {
		top = 4
	}
	for i > top {
		parent := (i - 1) / 4
		p := h[parent]
		if !entryLess(e, p) {
			break
		}
		h[i] = p
		p.ev.index = int32(i)
		i = parent
	}
	h[i] = e
	e.ev.index = int32(i)
}

// siftDown places e at slot i or below, moving earlier descendants up.
func (s *Scheduler) siftDown(i int, e entry) {
	h := s.events
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		var k int // the earliest child is h[first+k]
		if first+4 <= n {
			// Full group: a two-round tournament, first on the timestamps
			// alone. Selecting by comparison results instead of branching on
			// them lets the compiler use conditional moves.
			c := h[first : first+4 : first+4]
			a0, a1, a2, a3 := c[0].at, c[1].at, c[2].at, c[3].at
			lo, hi := min(a0, a1), min(a2, a3)
			at := min(lo, hi)
			if at > e.at {
				break
			}
			if b2i(a0 == at)+b2i(a1 == at)+b2i(a2 == at)+b2i(a3 == at) == 1 {
				// One child is strictly earliest; only e can still tie it.
				k = b2i(a1 < a0)
				if hi < lo {
					k = 2 + b2i(a3 < a2)
				}
				if at == e.at && !tieLess(&c[k].ev.order, &e.ev.order) {
					break
				}
			} else {
				// Siblings share that timestamp: the same tournament under
				// the full order.
				k = b2i(entryLess(c[1], c[0]))
				if k23 := 2 + b2i(entryLess(c[3], c[2])); entryLess(c[k23], c[k]) {
					k = k23
				}
				if !entryLess(c[k], e) {
					break
				}
			}
		} else {
			for j := 1; first+j < n; j++ {
				if entryLess(h[first+j], h[first+k]) {
					k = j
				}
			}
			if !entryLess(h[first+k], e) {
				break
			}
		}
		child := h[first+k]
		h[i] = child
		child.ev.index = int32(i)
		i = first + k
	}
	h[i] = e
	e.ev.index = int32(i)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fix restores heap order around slot i after its entry changed to e.
func (s *Scheduler) fix(i int, e entry) {
	s.siftUp(i, e)
	if int(e.ev.index) == i {
		s.siftDown(i, e)
	}
}

// removeAt deletes slot i by moving the last entry into it.
func (s *Scheduler) removeAt(i int) {
	h := s.events
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	s.events = h[:n]
	if i != n {
		s.fix(i, last)
	}
}

// head returns the heap with its earliest entry in slot 0, closing a root
// slot that is still open (the callback scheduled nothing, or is calling back
// into Step or a Run loop).
func (s *Scheduler) head() []entry {
	if s.open {
		s.open = false
		s.removeAt(0)
	}
	return s.events
}

// insert is the one way into the queue: it takes an event from the freelist
// (or allocates one), fills in the whole key and the callback, and places it
// — in the open root slot if there is one, else at the bottom. Every
// scheduling call reaches it through Schedule or InjectAt.
func (s *Scheduler) insert(t, stamp time.Duration, key, sub uint32, kind Kind, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: event scheduled with nil function")
	}
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at, ev.stamp, ev.seq = t, stamp, s.seq
	ev.keysub, ev.kind = uint64(key)<<32|uint64(sub), kind
	ev.s, ev.fn, ev.arg = s, fn, arg
	s.seq++
	e := entry{t, ev}
	if s.open {
		s.open = false
		s.siftDown(0, e)
	} else {
		s.events = append(s.events, e)
		s.siftUp(len(s.events)-1, e)
	}
	return ev
}

// recycle returns a fired or cancelled event to the freelist. Callback and
// argument references are dropped so recycled events retain nothing.
func (s *Scheduler) recycle(ev *Event) {
	ev.fn = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// At schedules fn to run at absolute virtual time t, untagged (KindOther):
// Schedule(t, KindOther, ...) for a plain func().
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	return s.Schedule(t, KindOther, callFunc, funcArg(fn))
}

// After schedules fn to run after delay d from the current virtual time: At
// Now+d. A negative delay, or one so large that Now+d overflows, runs the
// event at the current time; so does EventTimer.Reset.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	return s.Schedule(s.now+d, KindOther, callFunc, funcArg(fn))
}

func callFunc(fn any) { fn.(func())() }

// funcArg refuses a nil func() where it is scheduled, as insert refuses a nil
// callback, instead of where it would fire.
func funcArg(fn func()) any {
	if fn == nil {
		panic("simtime: event scheduled with nil function")
	}
	return fn
}

// Schedule schedules fn(arg) at absolute virtual time t, tagged with kind for
// the profiler (see Kind), and returns its handle. A t in the past (before
// Now) runs the event at the current time, so a delay d is scheduled as
// Schedule(Now()+d, ...). The event is stamped Now and unkeyed, so among
// events for the same instant it fires in scheduling order.
func (s *Scheduler) Schedule(t time.Duration, kind Kind, fn func(any), arg any) *Event {
	return s.insert(max(t, s.now), s.now, 0, 0, kind, fn, arg)
}

// InjectAt schedules fn(arg) at absolute time t with an explicit insertion
// stamp, sort key and sub-sequence: the caller names the whole position
// (t, stamp, key, sub) of the event in the firing order instead of taking
// stamp = Now. It serves whoever computes an event at one virtual time and
// inserts it at another, and wants it to fire where an insertion at stamp
// would have put it:
//
//   - netsim schedules a packet's hand-up once its serialisation has
//     started, for the end of serialisation plus the propagation delay,
//     stamped with the end of serialisation — the instant a tx-done event
//     there would have inserted it.
//   - sharded execution hands such a delivery across schedulers: the sending
//     shard computed it, the receiving shard inserts it during a
//     synchronization barrier.
//
// The stamp slots the event among same-timestamp events exactly where a
// single scheduler inserting at that instant would have placed it — events
// inserted earlier than stamp sort first, later ones after. Among events
// sharing both timestamp and stamp, lower keys run first, then lower subs,
// before any seq (insertion-order) consideration: two events inserted at the
// same instant on different shards have no common insertion order, so a key
// derived from stable content supplies the order serial and sharded runs
// agree on without either observing the other's insertion order, provided
// every event that can land in such a double tie is keyed the same way.
// netsim keys each packet hand-up with the delivering link direction's
// identity (Link.SortKey) and, as sub, that direction's own delivery number,
// which orders several same-instant hand-ups of one direction. Unkeyed local
// events in the double tie sort by key zero, i.e. before any keyed one, in
// both runs alike.
//
// The stamp may lie in the future of this scheduler's clock; it is only ever
// compared, and it is capped at t (an event cannot have been inserted after it
// fires). What the order guarantees is relative: against an event inserted
// locally at some time u for the same t, the injected one sorts first if
// stamp < u, after if stamp > u, by key at stamp == u — whether u has already
// passed or not.
//
// Injecting into the past (t < Now) panics: it means the conservative
// synchronization invariant (arrival >= sender clock + lookahead >= receiver
// clock) was violated, and executing the event would silently diverge from
// the serial run instead.
func (s *Scheduler) InjectAt(t, stamp time.Duration, key, sub uint32, kind Kind, fn func(any), arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("simtime: InjectAt(%v) into the past at t=%v (conservative sync violated)", t, s.now))
	}
	return s.insert(t, min(stamp, t), key, sub, kind, fn, arg)
}

// Step executes the earliest pending event, advancing the virtual clock to its
// timestamp. It returns false if no events remain.
//
// The fired event's root slot stays open while its callback runs, because the
// usual callback schedules a successor: that insertion then costs one
// sift-down from the root, where closing the slot first would cost the same
// sift-down for the last leaf plus a sift-up for the successor.
func (s *Scheduler) Step() bool {
	h := s.head()
	if len(h) == 0 {
		s.pass(through(math.MaxInt64))
		return false
	}
	ev := h[0].ev
	ev.index = notQueued
	s.open = true
	s.pass(ev.order)
	if ev.at > s.now {
		s.now = ev.at
	}
	s.executed++
	if s.prof == nil {
		ev.fn(ev.arg)
	} else {
		s.fireProfiled(ev)
	}
	s.head()
	// Recycle only after the callback: an executing event is never in the
	// freelist, so a callback that schedules new work cannot be handed its
	// own still-running event.
	if ev.index != canceledIdx {
		s.recycle(ev)
	}
	return true
}

// Run executes events until none remain.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps at or before t, then advances the
// clock to exactly t. Events scheduled during execution are honoured if they
// fall within the horizon.
func (s *Scheduler) RunUntil(t time.Duration) {
	for h := s.head(); len(h) > 0 && h[0].at <= t; h = s.head() {
		s.Step()
	}
	s.pass(through(t))
	if t > s.now {
		s.now = t
	}
}

// RunFor executes events for a span d of virtual time starting at Now.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now + d)
}

// RunUntilBefore executes events with timestamps strictly before t and leaves
// the clock at the last executed event. It is the window-execution primitive
// of sharded runs: events at exactly t belong to the next window (a barrier at
// t may fire network dynamics that must order before them), so the clock is
// advanced to t separately with AdvanceTo once the barrier completes.
func (s *Scheduler) RunUntilBefore(t time.Duration) {
	for h := s.head(); len(h) > 0 && h[0].at < t; h = s.head() {
		s.Step()
	}
	s.pass(before(t))
}

// AdvanceTo moves the clock forward to t without executing anything. It
// panics if an event earlier than t is still pending — advancing over it
// would skip it — so it doubles as the end-of-window assertion that
// RunUntilBefore really drained the window.
func (s *Scheduler) AdvanceTo(t time.Duration) {
	if h := s.head(); len(h) > 0 && h[0].at < t {
		panic(fmt.Sprintf("simtime: AdvanceTo(%v) over pending event at %v", t, h[0].at))
	}
	s.pass(before(t))
	if t > s.now {
		s.now = t
	}
}

// EventTimer is the scheduler's one timer: a cancellable, resettable
// one-shot, kept as a value in the object whose timer it is. The owner passes
// a package-level callback and itself as arg, so a timer costs no allocation
// of its own. Init must run before any other method, and an EventTimer must
// not be copied once it has been armed (its pending event points at it).
type EventTimer struct {
	s    *Scheduler
	kind Kind
	fn   func(any)
	arg  any
	ev   *Event
}

// Init binds the timer to the scheduler: when it fires it calls fn(arg), the
// event tagged with kind — the callback shape of Schedule.
func (t *EventTimer) Init(s *Scheduler, kind Kind, fn func(any), arg any) {
	if fn == nil {
		panic("simtime: EventTimer.Init called with nil function")
	}
	*t = EventTimer{s: s, kind: kind, fn: fn, arg: arg}
}

// fireTimer is the callback of every timer event: the timer rides along as
// the event's argument, so neither creating nor rearming a timer needs a
// closure.
func fireTimer(arg any) {
	t := arg.(*EventTimer)
	t.ev = nil
	t.fn(t.arg)
}

// Reset (re)arms the timer to fire after d; a zero or negative d fires it at
// the current time. A pending timer's event is re-keyed in place with the keys
// Stop followed by a fresh Schedule(Now+d) would give it — new time, stamp
// Now, the next seq — so the firing order is the same, for one sift instead of
// a removal and an insertion.
func (t *EventTimer) Reset(d time.Duration) {
	s, ev := t.s, t.ev
	if ev == nil {
		t.ev = s.Schedule(s.now+d, t.kind, fireTimer, t)
		return
	}
	ev.at = max(s.now+d, s.now)
	ev.stamp = s.now
	ev.seq = s.seq
	s.seq++
	s.fix(int(ev.index), entry{ev.at, ev})
}

// Stop cancels the timer if it is pending; stopping a fired or stopped timer
// is a no-op.
func (t *EventTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// Pending reports whether the timer is armed.
func (t *EventTimer) Pending() bool { return t.ev != nil && !t.ev.Canceled() }

// Seconds converts a duration to floating-point seconds. It is a convenience
// used throughout the experiment harness when reporting rates.
func Seconds(d time.Duration) float64 { return d.Seconds() }

// FromSeconds converts floating-point seconds to a duration, saturating at the
// maximum representable duration.
func FromSeconds(s float64) time.Duration {
	if s <= 0 {
		return 0
	}
	f := s * float64(time.Second)
	if f > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(f)
}
