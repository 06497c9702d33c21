package simtime

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// ---------------------------------------------------------------------------
// The reference scheduler: container/heap, the five-key firing order
// (at, stamp, key, sub, seq) spelled out, and nothing clever. The differential
// tests below hold Scheduler to it operation by operation.
// ---------------------------------------------------------------------------

type refEvent struct {
	at, stamp time.Duration
	key, sub  uint32
	seq       uint64
	id, index int
	// chain is set on a member of a reserved chain (see chain below): a real
	// event here, which fires silently and inserts the chain's next member.
	chain *refChain
}

// A reserved chain is what a link's transmitter keeps to itself: a sequence
// of events keyed (0, sub), the first reserved at the chain's creation, each
// later one inserted by the firing of the one before it, stamped with that
// firing's instant. The reference inserts and fires them like any other event,
// except that they run no callback, do not move the clock and are not counted;
// the Scheduler only reserves the first seq and answers Fired.
type refChain struct {
	ats   []time.Duration
	sub   uint32
	fired int
}

type refHeap []*refEvent

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *refHeap) Push(x any)   { e := x.(*refEvent); e.index = len(*h); *h = append(*h, e) }
func (h *refHeap) Pop() any     { e := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; e.index = -1; return e }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.stamp != b.stamp:
		return a.stamp < b.stamp
	case a.key != b.key:
		return a.key < b.key
	case a.sub != b.sub:
		return a.sub < b.sub
	}
	return a.seq < b.seq
}

type refSched struct {
	now      time.Duration
	h        refHeap
	seq      uint64
	executed uint64
	reserved int // chain members in h
	fire     func(id int)
}

func (r *refSched) push(id int, t, stamp time.Duration, key, sub uint32) *refEvent {
	e := &refEvent{at: t, stamp: stamp, key: key, sub: sub, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.h, e)
	return e
}

func (r *refSched) cancel(e *refEvent) {
	if e.index >= 0 {
		heap.Remove(&r.h, e.index)
	}
}

// pop fires the earliest event and reports whether it was a real one.
func (r *refSched) pop() bool {
	e := heap.Pop(&r.h).(*refEvent)
	if c := e.chain; c != nil {
		r.reserved--
		if c.fired++; c.fired < len(c.ats) {
			r.pushChain(c, e.at)
		}
		return false
	}
	r.now = max(r.now, e.at)
	r.executed++
	r.fire(e.id)
	return true
}

// pushChain inserts the chain's next member, stamped stamp.
func (r *refSched) pushChain(c *refChain, stamp time.Duration) {
	e := r.push(0, c.ats[c.fired], stamp, 0, c.sub)
	e.chain = c
	r.reserved++
}

// step fires events up to and including the next real one.
func (r *refSched) step() bool {
	for len(r.h) > 0 {
		if r.pop() {
			return true
		}
	}
	return false
}

// runBelow fires everything earlier than limit (RunUntil(t) is runBelow(t+1)).
func (r *refSched) runBelow(limit time.Duration) {
	for len(r.h) > 0 && r.h[0].at < limit {
		r.pop()
	}
}

// ---------------------------------------------------------------------------
// Both schedulers behind one face, so that one trace interpreter drives either.
// Event ids are positive; timer i fires as id -(i+1).
// ---------------------------------------------------------------------------

const traceTimers = 4

type driven interface {
	at(id int, t time.Duration)
	after(id int, d time.Duration)
	schedule(id int, t time.Duration)
	keyed(id int, t time.Duration, key, sub uint32)
	inject(id int, t, stamp time.Duration, key, sub uint32)
	cancel(id int)
	cancelFiring() // the innermost running event cancels itself
	reset(timer int, d time.Duration)
	stop(timer int)
	timerPending(timer int) bool
	step() bool
	runUntil(t time.Duration)
	runUntilBefore(t time.Duration)
	advanceTo(t time.Duration)
	// nextAt is the time of the earliest pending event (reserved ones left
	// out), ok false when none is.
	nextAt() (t time.Duration, ok bool)
	state() (now time.Duration, pending int, executed uint64)
	// chain reserves a chain whose members fire at ats, the first stamped
	// now; chainsFired counts the fired members of each chain, leaving out
	// (as lazyChain) the lazy ones unless top is set.
	chain(ats []time.Duration, sub uint32)
	chainsFired(top bool) [traceChains]uint8
}

// A chain keyed with a sub from lazySub up ties no other event, so its owner
// need not ask Fired at every point, only at the top level: inside callbacks
// its count is logged as lazyChain. That is what holds Fired to the order of
// points that fire out of key order, which an owner asking at every point
// never depends on.
const (
	lazySub   = 4
	lazyChain = 0xff
)

const traceChains = 4

type realWorld struct {
	t      testing.TB
	s      *Scheduler
	events map[int]*Event
	timers [traceTimers]EventTimer
	fire   func(id int)
	firing []*Event // handles of the callbacks on the stack, nil for timers
	chains []*realChain
}

// realChain is a reserved chain as its owner keeps it: the members' times,
// the stamp and seq of the first one Fired has not yet reported, and how many
// it has.
type realChain struct {
	ats   []time.Duration
	stamp time.Duration
	sub   uint32
	seq   uint64
	fired int
}

func newRealWorld(t testing.TB, fire func(id int)) *realWorld {
	w := &realWorld{t: t, s: NewScheduler(), events: map[int]*Event{}, fire: fire}
	for i := range w.timers {
		w.timers[i].Init(w.s, KindOther, w.argFn, -(i + 1))
	}
	return w
}

func (w *realWorld) fired(id int) {
	w.firing = append(w.firing, w.events[id])
	delete(w.events, id)
	w.fire(id)
	w.firing = w.firing[:len(w.firing)-1]
}

func (w *realWorld) fn(id int) func()              { return func() { w.fired(id) } }
func (w *realWorld) argFn(arg any)                 { w.fired(arg.(int)) }
func (w *realWorld) at(id int, t time.Duration)    { w.events[id] = w.s.At(t, w.fn(id)) }
func (w *realWorld) after(id int, d time.Duration) { w.events[id] = w.s.After(d, w.fn(id)) }
func (w *realWorld) schedule(id int, t time.Duration) {
	w.events[id] = w.s.Schedule(t, KindCMGrant, w.argFn, id)
}
func (w *realWorld) keyed(id int, t time.Duration, key, sub uint32) {
	w.events[id] = w.s.InjectAt(max(t, w.s.Now()), w.s.Now(), key, sub, KindOther, w.argFn, id)
}
func (w *realWorld) inject(id int, t, stamp time.Duration, key, sub uint32) {
	w.events[id] = w.s.InjectAt(t, stamp, key, sub, KindPktDeliver, w.argFn, id)
}
func (w *realWorld) cancel(id int) {
	ev := w.events[id]
	ev.Cancel()
	if !ev.Canceled() {
		w.t.Fatalf("event %d not Canceled() after Cancel", id)
	}
	delete(w.events, id)
}
func (w *realWorld) cancelFiring() {
	if ev := w.firing[len(w.firing)-1]; ev != nil {
		ev.Cancel()
		if !ev.Canceled() {
			w.t.Fatalf("running event not Canceled() after cancelling itself")
		}
	}
}
func (w *realWorld) reset(timer int, d time.Duration) { w.timers[timer].Reset(d) }
func (w *realWorld) stop(timer int)                   { w.timers[timer].Stop() }
func (w *realWorld) timerPending(timer int) bool      { return w.timers[timer].Pending() }
func (w *realWorld) step() bool                       { return w.s.Step() }
func (w *realWorld) runUntil(t time.Duration)         { w.s.RunUntil(t) }
func (w *realWorld) runUntilBefore(t time.Duration)   { w.s.RunUntilBefore(t) }
func (w *realWorld) advanceTo(t time.Duration)        { w.s.AdvanceTo(t) }
func (w *realWorld) nextAt() (time.Duration, bool) {
	if h := w.s.head(); len(h) > 0 {
		return h[0].at, true
	}
	return 0, false
}
func (w *realWorld) chain(ats []time.Duration, sub uint32) {
	w.chains = append(w.chains, &realChain{ats: ats, stamp: w.s.Now(), sub: sub, seq: w.s.Reserve()})
}
func (w *realWorld) chainsFired(top bool) (n [traceChains]uint8) {
	for i, c := range w.chains {
		if c.sub >= lazySub && !top {
			n[i] = lazyChain
			continue
		}
		for c.fired < len(c.ats) {
			after, ok := w.s.Fired(c.ats[c.fired], c.stamp, 0, c.sub, c.seq)
			if !ok {
				break
			}
			c.stamp, c.seq = c.ats[c.fired], after
			c.fired++
		}
		n[i] = uint8(c.fired)
	}
	return n
}
func (w *realWorld) state() (time.Duration, int, uint64) {
	checkHeap(w.t, w.s, len(w.firing) > 0)
	for id, ev := range w.events {
		if ev.index < 0 {
			w.t.Fatalf("pending event %d has index %d", id, ev.index)
		}
	}
	return w.s.Now(), w.s.Len(), w.s.Executed()
}

type refWorld struct {
	r      refSched
	events map[int]*refEvent
	timers [traceTimers]*refEvent
	chains []*refChain
}

func newRefWorld(fire func(id int)) *refWorld {
	w := &refWorld{events: map[int]*refEvent{}}
	w.r.fire = func(id int) {
		if id < 0 {
			w.timers[-id-1] = nil
		} else {
			delete(w.events, id)
		}
		fire(id)
	}
	return w
}

func (w *refWorld) at(id int, t time.Duration) {
	w.events[id] = w.r.push(id, max(t, w.r.now), w.r.now, 0, 0)
}
func (w *refWorld) after(id int, d time.Duration)    { w.at(id, w.r.now+max(d, 0)) }
func (w *refWorld) schedule(id int, t time.Duration) { w.at(id, t) }
func (w *refWorld) keyed(id int, t time.Duration, key, sub uint32) {
	w.events[id] = w.r.push(id, max(t, w.r.now), w.r.now, key, sub)
}
func (w *refWorld) inject(id int, t, stamp time.Duration, key, sub uint32) {
	w.events[id] = w.r.push(id, t, min(stamp, t), key, sub)
}
func (w *refWorld) cancel(id int) { w.r.cancel(w.events[id]); delete(w.events, id) }
func (w *refWorld) cancelFiring() {}
func (w *refWorld) reset(timer int, d time.Duration) {
	w.stop(timer)
	w.timers[timer] = w.r.push(-(timer + 1), w.r.now+max(d, 0), w.r.now, 0, 0)
}
func (w *refWorld) stop(timer int) {
	if e := w.timers[timer]; e != nil {
		w.r.cancel(e)
		w.timers[timer] = nil
	}
}
func (w *refWorld) timerPending(timer int) bool { return w.timers[timer] != nil }
func (w *refWorld) step() bool                  { return w.r.step() }
func (w *refWorld) runUntil(t time.Duration) {
	w.r.runBelow(t + 1)
	w.r.now = max(w.r.now, t)
}
func (w *refWorld) runUntilBefore(t time.Duration) { w.r.runBelow(t) }
func (w *refWorld) advanceTo(t time.Duration) {
	w.r.runBelow(t) // reserved events only: AdvanceTo panics over a real one
	w.r.now = max(w.r.now, t)
}
func (w *refWorld) nextAt() (time.Duration, bool) {
	var next *refEvent
	for _, e := range w.r.h {
		if e.chain == nil && (next == nil || e.at < next.at) {
			next = e
		}
	}
	if next == nil {
		return 0, false
	}
	return next.at, true
}
func (w *refWorld) state() (time.Duration, int, uint64) {
	return w.r.now, len(w.r.h) - w.r.reserved, w.r.executed
}
func (w *refWorld) chain(ats []time.Duration, sub uint32) {
	c := &refChain{ats: ats, sub: sub}
	w.chains = append(w.chains, c)
	w.r.pushChain(c, w.r.now)
}
func (w *refWorld) chainsFired(top bool) (n [traceChains]uint8) {
	for i, c := range w.chains {
		n[i] = uint8(c.fired)
		if c.sub >= lazySub && !top {
			n[i] = lazyChain
		}
	}
	return n
}

// checkHeap verifies the queue's structure: heap order under the full
// comparator, the timestamp copy in every entry, every Event.index
// back-pointer, and the open-slot invariant — the root is open only while a
// callback is on the stack, holds the fired event, is not counted by Len, and
// has no live entry above slots 1..4.
func checkHeap(t testing.TB, s *Scheduler, inCallback bool) {
	t.Helper()
	first := 0
	if s.open {
		if !inCallback {
			t.Fatalf("root slot open outside any callback")
		}
		if len(s.events) == 0 || s.events[0].ev.index >= 0 {
			t.Fatalf("open root slot does not hold a fired event")
		}
		first = 1
	}
	if s.Len() != len(s.events)-first {
		t.Fatalf("Len() = %d with %d entries, open=%v", s.Len(), len(s.events), s.open)
	}
	for i := first; i < len(s.events); i++ {
		e := s.events[i]
		if e.ev.index != int32(i) || e.ev.at != e.at || e.ev.s != s {
			t.Fatalf("slot %d: entry at=%v, event at=%v index=%d", i, e.at, e.ev.at, e.ev.index)
		}
		if p := (i - 1) / 4; i > first && p >= first && entryLess(e, s.events[p]) {
			t.Fatalf("slot %d orders before its parent %d", i, p)
		}
	}
}

// ---------------------------------------------------------------------------
// Traces. A trace is a byte string; the interpreter decodes operations from it
// one after another, and a firing callback decodes its own operations from the
// same cursor. Two schedulers that fire in the same order therefore see the
// same operations, and two that do not produce different logs. Delays, keys
// and subs come from tiny ranges so that ties on every key are the rule.
// ---------------------------------------------------------------------------

type traceRec struct {
	op       string
	id       int
	now      time.Duration
	pending  int
	executed uint64
	timers   uint8
	chains   [traceChains]uint8
}

type interp struct {
	w      driven
	data   []byte
	pos    int
	nextID int
	chains int
	live   []int          // ids scheduled and neither fired nor cancelled, ascending
	keys   map[int]uint32 // sort key of each live id
	firing []int          // ids of the callbacks on the stack
	log    []traceRec
}

func (in *interp) byte() int {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return int(in.data[in.pos-1])
}

func (in *interp) note(op string, id int) {
	now, pending, executed := in.w.state()
	var timers uint8
	for i := 0; i < traceTimers; i++ {
		if in.w.timerPending(i) {
			timers |= 1 << i
		}
	}
	in.log = append(in.log, traceRec{op, id, now, pending, executed, timers, in.w.chainsFired(len(in.firing) == 0)})
}

func (in *interp) newID(key uint32) int {
	in.nextID++
	in.live = append(in.live, in.nextID)
	in.keys[in.nextID] = key
	return in.nextID
}

func (in *interp) dropLive(id int) {
	for i, v := range in.live {
		if v == id {
			in.live = append(in.live[:i], in.live[i+1:]...)
			break
		}
	}
	delete(in.keys, id)
}

// fired is every event's and every timer's callback.
func (in *interp) fired(id int) {
	key := in.keys[id]
	in.dropLive(id)
	in.note("fire", id)
	in.firing = append(in.firing, id)
	for n := in.byte() % 4; n > 0 && in.pos < len(in.data); n-- {
		in.op(key)
	}
	in.firing = in.firing[:len(in.firing)-1]
}

const tick = time.Millisecond

// op decodes and applies one operation. Inside a callback firingKey is the
// running event's sort key.
func (in *interp) op(firingKey uint32) {
	now, _, _ := in.w.state()
	inCallback := len(in.firing) > 0
	code := in.byte() % 17
	switch code {
	case 0:
		id := in.newID(0)
		in.w.at(id, now+time.Duration(in.byte()%8-2)*tick)
		in.note("at", id)
	case 1:
		id := in.newID(0)
		in.w.schedule(id, now+time.Duration(in.byte()%8-2)*tick)
		in.note("schedule", id)
	case 2, 3:
		id := in.newID(0)
		in.w.after(id, time.Duration(in.byte()%8-1)*tick)
		in.note("after", id)
	case 4, 5, 6:
		key := uint32(in.byte() % 4)
		id := in.newID(key)
		in.w.keyed(id, now+time.Duration(in.byte()%6)*tick, key, uint32(in.byte()%4))
		in.note("keyed", id)
	case 7:
		key := uint32(in.byte() % 4)
		id := in.newID(key)
		t := now + time.Duration(in.byte()%6)*tick
		stamp := max(0, now+time.Duration(in.byte()%6-3)*tick)
		in.w.inject(id, t, stamp, key, uint32(in.byte()%4))
		in.note("inject", id)
	case 8, 9:
		if code == 9 && inCallback {
			// A no-op for the queue, but the handle must survive it.
			in.w.cancelFiring()
			in.note("cancel-self", in.firing[len(in.firing)-1])
		} else if len(in.live) > 0 {
			id := in.live[in.byte()%len(in.live)]
			in.w.cancel(id)
			in.dropLive(id)
			in.note("cancel", id)
		}
	case 10, 11:
		timer := in.byte() % traceTimers
		in.w.reset(timer, time.Duration(in.byte()%8-1)*tick)
		in.note("reset", -(timer + 1))
	case 12:
		timer := in.byte() % traceTimers
		in.w.stop(timer)
		in.note("stop", -(timer + 1))
	case 13:
		if !inCallback {
			in.w.runUntil(now + time.Duration(in.byte()%6)*tick)
			in.note("run-until", 0)
		} else if len(in.firing) < 3 {
			in.w.step() // a callback may drive the scheduler itself
			in.note("nested-step", 0)
		}
	case 14:
		if !inCallback {
			t := now + time.Duration(in.byte()%6)*tick
			if in.byte()%2 == 0 {
				in.w.runUntilBefore(t)
				in.note("run-until-before", 0)
			} else if next, ok := in.w.nextAt(); ok {
				// A barrier with nothing to run first: reserved events
				// before it have fired, none at it.
				t = max(now, min(t, next))
			}
			in.w.advanceTo(t)
			in.note("advance-to", 0)
		} else {
			// Zero delay, and a key below the running event's: it must still
			// fire after it, and before everything later.
			key := max(firingKey, 1) - 1
			id := in.newID(key)
			in.w.keyed(id, now, key, 0)
			in.note("keyed-now", id)
		}
	case 15:
		if !inCallback {
			in.w.step()
			in.note("step", 0)
		} else {
			for n := 2 + in.byte()%2; n > 0; n-- {
				id := in.newID(0)
				in.w.after(id, time.Duration(in.byte()%3)*tick)
				in.note("after", id)
			}
		}
	case 16:
		// A reserved chain: members keyed (0, sub) one or two ticks apart or
		// tied, from now on — ties with keyed events, which share its key and
		// stamps, are the rule unless the chain is lazy.
		if in.chains < traceChains {
			in.chains++
			sub := uint32(in.byte() % (2 * lazySub))
			ats := make([]time.Duration, 1+in.byte()%4)
			t := now
			for i := range ats {
				t += time.Duration(in.byte()%3) * tick
				ats[i] = t
			}
			in.w.chain(ats, sub)
			in.note("chain", in.chains)
		}
	}
}

// runTrace applies a trace to one scheduler and returns the log: a record
// after every operation and every firing.
func runTrace(data []byte, world func(fire func(id int)) driven) []traceRec {
	in := &interp{data: data, keys: map[int]uint32{}}
	in.w = world(in.fired)
	for in.pos < len(in.data) {
		in.op(0)
	}
	for in.w.step() {
	}
	in.note("drained", 0)
	return in.log
}

// checkTrace is the differential check shared by the seeded test and the fuzz
// target.
func checkTrace(t testing.TB, data []byte) {
	t.Helper()
	got := runTrace(data, func(fire func(int)) driven { return newRealWorld(t, fire) })
	want := runTrace(data, func(fire func(int)) driven { return newRefWorld(fire) })
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			var g any = "nothing"
			if i < len(got) {
				g = fmt.Sprintf("%+v", got[i])
			}
			t.Fatalf("trace %x: record %d: Scheduler %v, reference %+v", data, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace %x: Scheduler logged %d records, reference %d", data, len(got), len(want))
	}
}

func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trace := 0; trace < 1500; trace++ {
		data := make([]byte, 16+rng.Intn(240))
		rng.Read(data)
		checkTrace(t, data)
	}
}

// FuzzSchedulerOps is the same differential check over fuzzer-chosen traces.
// The seed corpus lives in testdata/fuzz/FuzzSchedulerOps.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("trace longer than any schedule worth shrinking")
		}
		checkTrace(t, data)
	})
}

// The Event comment promises 72 bytes (bytes_per_pkt is bounded), and a heap
// entry is a timestamp and a pointer, so four siblings are 64 bytes.
func TestEventAndEntrySizes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 72 {
		t.Errorf("Event is %d bytes, want <= 72", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 16 {
		t.Errorf("heap entry is %d bytes, want 16", got)
	}
}
