// Package simtime provides a deterministic discrete-event scheduler used as
// the virtual clock for the Congestion Manager simulation substrate.
//
// The paper's evaluation ran on a physical testbed; this package replaces
// wall-clock time with a virtual clock so that every experiment in the
// reproduction is deterministic and runs in milliseconds of real time.
//
// The central type is Scheduler. Events are scheduled at absolute virtual
// times or after relative delays and are executed in timestamp order; ties are
// broken by scheduling order (FIFO), which keeps runs reproducible. Each event
// additionally records the virtual time it was *inserted* (its stamp) and an
// optional caller-chosen sort key and sub-sequence, and the full heap order is
// (time, stamp, key, sub, seq). For ordinary scheduling the extra keys are
// redundant — stamps are nondecreasing in seq — but they are what lets a
// sharded simulation inject events from another scheduler (InjectAt) into
// exactly the position a single-scheduler run would have given them: the
// stamp recovers the insertion instant, and the sort key breaks the residual
// tie between events inserted at the same instant on different shards, where
// no insertion order exists that both runs could observe.
//
// The scheduler is built for the inner loop of large experiments: the event
// queue is a specialized 4-ary min-heap (no container/heap interface
// dispatch), fired and cancelled events are recycled through a freelist so
// steady-state scheduling allocates nothing, and Cancel removes the event
// from the heap immediately instead of leaking it until its timestamp.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Clock exposes the current virtual time. The Congestion Manager core and the
// protocol implementations depend only on this interface (plus TimerFactory),
// so they can also run against wall-clock time in micro-benchmarks.
type Clock interface {
	// Now returns the current virtual time measured from the start of the
	// simulation.
	Now() time.Duration
}

// Timer is a cancellable, resettable one-shot timer bound to a Clock.
type Timer interface {
	// Reset (re)arms the timer to fire after d. A zero or negative d fires
	// the timer at the current time.
	Reset(d time.Duration)
	// Stop cancels the timer if it is pending. Stopping an already-fired or
	// already-stopped timer is a no-op.
	Stop()
	// Pending reports whether the timer is currently armed.
	Pending() bool
}

// TimerFactory creates timers that invoke fn when they fire.
type TimerFactory interface {
	NewTimer(fn func()) Timer
}

// KindTimerFactory is optionally implemented by timer factories whose timers
// can be tagged with an event Kind for the profiler (Scheduler implements
// it). Use the package-level NewKindTimer helper to fall back to plain,
// untagged timers for factories that do not.
type KindTimerFactory interface {
	NewKindTimer(kind Kind, fn func()) Timer
}

// NewKindTimer creates a timer from tf tagged with kind when tf supports
// tagging (KindTimerFactory), and an ordinary untagged timer otherwise. The
// tag only feeds the profiler; timer semantics are identical either way.
func NewKindTimer(tf TimerFactory, kind Kind, fn func()) Timer {
	if ktf, ok := tf.(KindTimerFactory); ok {
		return ktf.NewKindTimer(kind, fn)
	}
	return tf.NewTimer(fn)
}

// Event is a handle to a scheduled callback.
//
// Lifetime: a handle is valid from the At/After call until the event fires or
// is cancelled. Once either has happened the Event may be recycled for a
// later scheduling, so callers must not retain or Cancel a handle past that
// point (the Timer type wraps this protocol for the common rearm pattern).
type Event struct {
	at time.Duration
	// stamp is the virtual time the event was inserted: Now for local
	// scheduling, the remote sender's insertion time for InjectAt. It is the
	// second heap key, before key and seq, so injected events sort exactly
	// where a single-scheduler run would have placed them.
	stamp time.Duration
	seq   uint64
	// key is a caller-chosen sort key breaking ties among events scheduled at
	// the same (at, stamp); zero for ordinary scheduling. Keyed events exist
	// for sharded determinism: two same-instant insertions on different
	// schedulers have no common insertion order, so the key (derived from
	// stable content — in practice the delivering link's identity) supplies
	// one that serial and sharded runs agree on.
	key uint32
	// sub is a second caller-chosen tie-break after key: a per-key sequence
	// number breaking ties among same-(at, stamp, key) events. In practice it
	// is the link-local delivery sequence netsim assigns per link direction,
	// which makes the serial/sharded agreement on hand-up order explicit
	// instead of leaning on scheduler insertion order (seq); zero for
	// ordinary scheduling.
	sub uint32
	// index is the heap position while queued, notQueued after firing or
	// recycling, and canceledIdx once Cancel has run (folding the canceled
	// flag into the index saves a separate bool). Adding the sub and kind
	// fields grew the Event from 72 to 80 bytes — a measurable but small cost
	// on the tie-heavy churn benchmark, accepted in exchange for the explicit
	// delivery sequence and per-kind cost attribution.
	index int32
	// kind classifies the event for the optional profiler (KindOther when
	// untagged); it packs into padding next to index.
	kind  Kind
	s     *Scheduler
	fn    func()
	argFn func(any)
	arg   any
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
		e.s.removeEvent(int(e.index))
		e.s.recycle(e)
	}
	e.index = canceledIdx
}

// fire invokes the event's callback.
func (e *Event) fire() {
	if e.fn != nil {
		e.fn()
		return
	}
	e.argFn(e.arg)
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all simulated components run in virtual time on a single
// goroutine, which mirrors the paper's single-host kernel module and keeps the
// reproduction deterministic.
type Scheduler struct {
	now      time.Duration
	events   []*Event // 4-ary min-heap ordered by (at, seq) / (at, stamp, key, sub, seq)
	free     []*Event // recycled events; bounds steady-state allocation at zero
	seq      uint64
	executed uint64
	limit    uint64 // safety valve against runaway simulations; 0 = no limit
	// prof, when non-nil, receives per-kind wall-clock aggregates for every
	// fired event (see EnableProfile). Disarmed cost: one nil check in Step.
	prof *Profile
	// stamped selects the multi-key comparator that orders same-timestamp
	// events by insertion stamp, then sort key and sub-sequence, before seq.
	// It flips on the
	// first InjectAt or AtArgKeyed and never back: until then stamps are
	// nondecreasing in seq and every key is zero, so both comparators
	// produce the same order (which also makes the mid-run flip safe — the
	// heap is valid under either), and simulations that use neither keyed
	// scheduling nor injection never pay for the extra comparisons.
	stamped bool
}

// NewScheduler returns a scheduler with the virtual clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events. Cancelled events are removed
// eagerly and do not count.
func (s *Scheduler) Len() int { return len(s.events) }

// Executed returns the total number of events that have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// SetEventLimit sets a safety limit on the number of events executed by Run
// and RunUntil; 0 disables the limit. Exceeding the limit causes a panic,
// which in practice indicates a livelocked simulation (for example a
// zero-delay event loop).
func (s *Scheduler) SetEventLimit(n uint64) { s.limit = n }

// ---------------------------------------------------------------------------
// 4-ary min-heap keyed by (at, seq), with all comparisons inlined.
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly more
// comparisons per level for far fewer cache-missing levels — the standard
// choice for timer wheels backing discrete-event simulators.
// ---------------------------------------------------------------------------

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func eventLessStamped(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.stamp != b.stamp {
		return a.stamp < b.stamp
	}
	if a.key != b.key {
		return a.key < b.key
	}
	if a.sub != b.sub {
		return a.sub < b.sub
	}
	return a.seq < b.seq
}

func (s *Scheduler) heapPush(ev *Event) {
	ev.index = int32(len(s.events))
	s.events = append(s.events, ev)
	s.siftUp(int(ev.index))
}

// heapPop removes and returns the minimum event. The caller guarantees the
// heap is non-empty.
func (s *Scheduler) heapPop() *Event {
	h := s.events
	ev := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.events = h[:n]
	ev.index = notQueued
	if n > 0 {
		last.index = 0
		s.events[0] = last
		s.siftDown(0)
	}
	return ev
}

// removeEvent deletes the event at heap index i (used by Cancel).
func (s *Scheduler) removeEvent(i int) {
	h := s.events
	n := len(h) - 1
	removed := h[i]
	last := h[n]
	h[n] = nil
	s.events = h[:n]
	removed.index = notQueued
	if i != n {
		last.index = int32(i)
		s.events[i] = last
		// The moved element may need to go either direction.
		s.siftDown(i)
		s.siftUp(int(last.index))
	}
}

// The sift loops exist twice — once per comparator — because the comparison
// sits in the innermost loop of the whole simulator: dispatching through a
// function value (or loading the unused stamp field on every compare) costs
// ~20% on tie-heavy workloads, measured by BenchmarkScaleEventChurn. The
// bodies must stay textually identical apart from the eventLess call.

func (s *Scheduler) siftUp(i int) {
	if s.stamped {
		s.siftUpStamped(i)
		return
	}
	h := s.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	if s.stamped {
		s.siftDownStamped(i)
		return
	}
	h := s.events
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		child := h[min]
		if !eventLess(child, ev) {
			break
		}
		h[i] = child
		child.index = int32(i)
		i = min
	}
	h[i] = ev
	ev.index = int32(i)
}

func (s *Scheduler) siftUpStamped(i int) {
	h := s.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !eventLessStamped(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

func (s *Scheduler) siftDownStamped(i int) {
	h := s.events
	n := len(h)
	ev := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLessStamped(h[c], h[min]) {
				min = c
			}
		}
		child := h[min]
		if !eventLessStamped(child, ev) {
			break
		}
		h[i] = child
		child.index = int32(i)
		i = min
	}
	h[i] = ev
	ev.index = int32(i)
}

// newEvent takes an event from the freelist (or allocates one) and resets it.
func (s *Scheduler) newEvent(t time.Duration) *Event {
	var ev *Event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.stamp = s.now
	ev.key = 0
	ev.sub = 0
	ev.kind = KindOther
	ev.seq = s.seq
	ev.index = notQueued
	ev.s = s
	s.seq++
	return ev
}

// recycle returns a fired or cancelled event to the freelist. Callback and
// argument references are dropped so recycled events retain nothing.
func (s *Scheduler) recycle(ev *Event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// runs the event at the current time (it is clamped to Now).
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	if fn == nil {
		panic("simtime: At called with nil function")
	}
	if t < s.now {
		t = s.now
	}
	ev := s.newEvent(t)
	ev.fn = fn
	s.heapPush(ev)
	return ev
}

// After schedules fn to run after delay d from the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// AtArg schedules fn(arg) at absolute virtual time t. Passing the argument
// through the event instead of a closure lets hot paths (one event per
// packet) schedule without allocating: a pointer-shaped arg boxes into the
// interface for free.
func (s *Scheduler) AtArg(t time.Duration, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: AtArg called with nil function")
	}
	if t < s.now {
		t = s.now
	}
	ev := s.newEvent(t)
	ev.argFn = fn
	ev.arg = arg
	s.heapPush(ev)
	return ev
}

// AfterArg schedules fn(arg) after delay d from the current virtual time.
func (s *Scheduler) AfterArg(d time.Duration, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	return s.AtArg(s.now+d, fn, arg)
}

// AtKind schedules fn at absolute virtual time t, tagged with an event kind
// for the profiler (see Kind). Ordering is identical to At.
func (s *Scheduler) AtKind(t time.Duration, kind Kind, fn func()) *Event {
	ev := s.At(t, fn)
	ev.kind = kind
	return ev
}

// AfterKind schedules fn after delay d, tagged with an event kind.
func (s *Scheduler) AfterKind(d time.Duration, kind Kind, fn func()) *Event {
	ev := s.After(d, fn)
	ev.kind = kind
	return ev
}

// AtArgKind schedules fn(arg) at absolute virtual time t, tagged with an
// event kind.
func (s *Scheduler) AtArgKind(t time.Duration, kind Kind, fn func(any), arg any) *Event {
	ev := s.AtArg(t, fn, arg)
	ev.kind = kind
	return ev
}

// AfterArgKind schedules fn(arg) after delay d, tagged with an event kind.
func (s *Scheduler) AfterArgKind(d time.Duration, kind Kind, fn func(any), arg any) *Event {
	ev := s.AfterArg(d, fn, arg)
	ev.kind = kind
	return ev
}

// AtArgKeyed schedules fn(arg) at absolute virtual time t with a sort key and
// sub-sequence: among events sharing both timestamp and insertion stamp,
// lower keys run first, then lower subs, before any seq (insertion-order)
// consideration. It exists for events that must order identically in serial
// and sharded executions — two events inserted at the same instant on
// different shards have no common insertion order, so a key derived from
// stable content (the delivering link) supplies the order both runs agree on,
// and the sub-sequence (the link-local delivery number) orders multiple
// same-instant hand-ups of the same link direction. netsim keys every
// packet-delivery hand-up with the link direction's identity and delivery
// sequence; see Link.SortKey. The event is tagged with kind for the profiler.
func (s *Scheduler) AtArgKeyed(t time.Duration, key, sub uint32, kind Kind, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: AtArgKeyed called with nil function")
	}
	if t < s.now {
		t = s.now
	}
	// Keys carry information only under the multi-key comparator; switch to
	// it permanently, exactly as InjectAt does (see Scheduler.stamped — the
	// flip is safe because every already-queued event has key zero and local
	// stamps are nondecreasing in seq, so the heap is valid under both
	// comparators at the moment of the flip).
	s.stamped = true
	ev := s.newEvent(t)
	ev.key = key
	ev.sub = sub
	ev.kind = kind
	ev.argFn = fn
	ev.arg = arg
	s.heapPush(ev)
	return ev
}

// AfterArgKeyed schedules fn(arg) after delay d with a sort key and
// sub-sequence (AtArgKeyed).
func (s *Scheduler) AfterArgKeyed(d time.Duration, key, sub uint32, kind Kind, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	return s.AtArgKeyed(s.now+d, key, sub, kind, fn, arg)
}

// InjectAt schedules fn(arg) at absolute time t with an explicit insertion
// stamp, sort key and sub-sequence. It is the cross-scheduler handoff used by sharded
// execution: the sending shard computed the event (a packet delivery) at
// virtual time stamp, and the receiving shard schedules it during a
// synchronization barrier. The stamp slots the event among same-timestamp
// local events exactly where a single-scheduler run would have placed it —
// local events inserted earlier than stamp sort first, later ones after — and
// the key breaks the remaining tie against events inserted at *exactly* the
// stamp instant, provided those were scheduled with the same key discipline
// (AtArgKeyed): a serial run orders such double-ties by key too, so both
// executions agree without either observing the other's insertion order.
// (Unkeyed local events at the double-tie instant sort by key zero, i.e.
// before any keyed injection, in both runs alike.) The sub-sequence orders
// multiple same-instant deliveries carrying the same key — the sender
// assigns it from the link direction's own delivery counter, so serial and
// sharded runs read off the same value.
//
// Injecting into the past (t < Now) panics: it means the conservative
// synchronization invariant (arrival >= sender clock + lookahead >= receiver
// clock) was violated, and executing the event would silently diverge from
// the serial run instead.
func (s *Scheduler) InjectAt(t, stamp time.Duration, key, sub uint32, kind Kind, fn func(any), arg any) *Event {
	if fn == nil {
		panic("simtime: InjectAt called with nil function")
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: InjectAt(%v) into the past at t=%v (conservative sync violated)", t, s.now))
	}
	if stamp > t {
		stamp = t
	}
	// Injection is what makes stamps carry information; switch to the
	// stamp-aware comparator from here on (see Scheduler.stamped).
	s.stamped = true
	ev := s.newEvent(t)
	ev.stamp = stamp
	ev.key = key
	ev.sub = sub
	ev.kind = kind
	ev.argFn = fn
	ev.arg = arg
	s.heapPush(ev)
	return ev
}

// Step executes the earliest pending event, advancing the virtual clock to its
// timestamp. It returns false if no events remain.
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := s.heapPop()
	if ev.at > s.now {
		s.now = ev.at
	}
	s.executed++
	if s.limit != 0 && s.executed > s.limit {
		panic(fmt.Sprintf("simtime: event limit %d exceeded at t=%v", s.limit, s.now))
	}
	if s.prof == nil {
		ev.fire()
	} else {
		s.fireProfiled(ev)
	}
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
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
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
	for len(s.events) > 0 && s.events[0].at < t {
		s.Step()
	}
}

// AdvanceTo moves the clock forward to t without executing anything. It
// panics if an event earlier than t is still pending — advancing over it
// would skip it — so it doubles as the end-of-window assertion that
// RunUntilBefore really drained the window.
func (s *Scheduler) AdvanceTo(t time.Duration) {
	if len(s.events) > 0 && s.events[0].at < t {
		panic(fmt.Sprintf("simtime: AdvanceTo(%v) over pending event at %v", t, s.events[0].at))
	}
	if t > s.now {
		s.now = t
	}
}

// NewTimer implements TimerFactory: the returned timer schedules fn on the
// scheduler when it fires. Timer events are untagged (KindOther); use
// NewKindTimer to classify them for the profiler.
func (s *Scheduler) NewTimer(fn func()) Timer {
	return s.NewKindTimer(KindOther, fn)
}

// NewKindTimer implements KindTimerFactory: like NewTimer, but every firing
// of the returned timer is tagged with kind for the profiler.
func (s *Scheduler) NewKindTimer(kind Kind, fn func()) Timer {
	if fn == nil {
		panic("simtime: NewTimer called with nil function")
	}
	return &simTimer{s: s, kind: kind, fn: fn}
}

type simTimer struct {
	s    *Scheduler
	kind Kind
	fn   func()
	ev   *Event
}

// fireTimer is the callback of every timer event: the timer rides along as
// the event's argument, so neither creating nor rearming a timer needs a
// closure.
func fireTimer(arg any) {
	t := arg.(*simTimer)
	t.ev = nil
	t.fn()
}

func (t *simTimer) Reset(d time.Duration) {
	t.Stop()
	t.ev = t.s.AfterArgKind(d, t.kind, fireTimer, t)
}

func (t *simTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

func (t *simTimer) Pending() bool { return t.ev != nil && !t.ev.Canceled() }

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

// WallClock adapts the host's real clock to the Clock interface. It is used by
// the Go micro-benchmarks (bench_test.go) that measure the real cost of CM
// operations, mirroring the paper's CPU-overhead experiments.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a WallClock whose zero is the moment of the call.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the elapsed wall-clock time since the WallClock was created.
func (w *WallClock) Now() time.Duration { return time.Since(w.start) }

// NewTimer implements TimerFactory using real time.AfterFunc timers.
func (w *WallClock) NewTimer(fn func()) Timer {
	return &wallTimer{fn: fn}
}

type wallTimer struct {
	fn func()
	t  *time.Timer
}

func (t *wallTimer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if t.t == nil {
		t.t = time.AfterFunc(d, t.fn)
		return
	}
	t.t.Reset(d)
}

func (t *wallTimer) Stop() {
	if t.t != nil {
		t.t.Stop()
	}
}

func (t *wallTimer) Pending() bool {
	// The standard library does not expose pending state; callers in the
	// wall-clock configuration do not rely on it.
	return false
}

var (
	_ Clock            = (*Scheduler)(nil)
	_ TimerFactory     = (*Scheduler)(nil)
	_ KindTimerFactory = (*Scheduler)(nil)
	_ Clock            = (*WallClock)(nil)
	_ TimerFactory     = (*WallClock)(nil)
)
