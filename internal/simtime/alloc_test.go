package simtime

import (
	"testing"
	"time"
)

// Regression test for the canceled-event leak: Cancel used to only set a
// flag, leaving the event in the heap until its timestamp. It must now be
// removed immediately.
func TestCancelShrinksHeapImmediately(t *testing.T) {
	s := NewScheduler()
	events := make([]*Event, 100)
	for i := range events {
		events[i] = s.At(time.Duration(i+1)*time.Second, func() {})
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
	// Cancel every other event, including first and last heap positions.
	for i := 0; i < len(events); i += 2 {
		events[i].Cancel()
		want := 100 - i/2 - 1
		if s.Len() != want {
			t.Fatalf("after cancelling %d events, Len() = %d, want %d", i/2+1, s.Len(), want)
		}
	}
	ran := 0
	for s.Step() {
		ran++
	}
	if ran != 50 {
		t.Fatalf("executed %d events, want 50", ran)
	}
}

// Cancelling from inside another event's callback must also remove it
// immediately and keep ordering intact.
func TestCancelFromCallbackRemovesPending(t *testing.T) {
	s := NewScheduler()
	var order []string
	var victim *Event
	victim = s.At(20*time.Millisecond, func() { order = append(order, "victim") })
	s.At(10*time.Millisecond, func() {
		order = append(order, "canceller")
		victim.Cancel()
		if s.Len() != 1 {
			t.Errorf("Len() inside callback = %d, want 1 (the 30ms event)", s.Len())
		}
	})
	s.At(30*time.Millisecond, func() { order = append(order, "last") })
	s.Run()
	if len(order) != 2 || order[0] != "canceller" || order[1] != "last" {
		t.Fatalf("order = %v, want [canceller last]", order)
	}
}

func TestDoubleCancelIsANoOp(t *testing.T) {
	s := NewScheduler()
	ev := s.At(time.Millisecond, func() {})
	other := s.At(2*time.Millisecond, func() {})
	ev.Cancel()
	ev.Cancel() // must not corrupt the freelist or the heap
	if s.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", s.Len())
	}
	s.Run()
	if other.Canceled() {
		t.Fatal("unrelated event reported canceled")
	}
}

func TestAtArgPassesArgument(t *testing.T) {
	s := NewScheduler()
	type box struct{ n int }
	b := &box{n: 7}
	var got *box
	s.Schedule(time.Millisecond, KindOther, func(x any) { got = x.(*box) }, b)
	s.Run()
	if got != b {
		t.Fatalf("Schedule delivered %v, want %v", got, b)
	}
}

func TestAfterArgOrderingMatchesAfter(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(s.Now()+time.Millisecond, KindOther, func(x any) { order = append(order, x.(int)) }, 2)
	s.After(time.Millisecond, func() { order = append(order, 3) })
	s.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("FIFO tie-break violated across After/Schedule: %v", order)
		}
	}
}

// Events are recycled through the freelist after firing; schedule/fire cycles
// must be allocation-free in steady state.
func TestAfterAndFireZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm up the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+fire allocated %.1f objects per op, want 0", allocs)
	}
}

// Timer Reset/fire cycles (the RTO / background-timer pattern) must also be
// allocation-free once the timer exists.
func TestTimerResetFireZeroAlloc(t *testing.T) {
	s := NewScheduler()
	tm := newTimer(s, func() {})
	tm.Reset(time.Microsecond)
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Microsecond)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Timer Reset+fire allocated %.1f objects per op, want 0", allocs)
	}
}

// An EventTimer embedded in its owner is no object at all: Init, arming,
// firing and stopping allocate nothing, the owner riding as the argument to a
// package-level callback. Every TCP endpoint embeds two, which is what
// short-flow workloads would otherwise pay per connection.
type timerOwner struct {
	fired int
	rto   EventTimer
	ack   EventTimer
}

func ownerFired(o any) { o.(*timerOwner).fired++ }

// A timer is no longer pending inside its own callback, so the callback may
// rearm it.
func TestNewTimerAllocatesOneObject(t *testing.T) {
	s := NewScheduler()
	o := new(timerOwner)
	pendingInside := true
	o.rto.Init(s, KindWorkloadApp, func(any) { pendingInside = o.rto.Pending() }, nil)
	o.rto.Reset(time.Millisecond)
	s.Run()
	if pendingInside {
		t.Fatal("timer did not fire, or was still pending inside its own callback")
	}
}

func TestEmbeddedTimerZeroAlloc(t *testing.T) {
	s := NewScheduler()
	o := new(timerOwner)
	arm := func() {
		o.rto.Init(s, KindWorkloadApp, ownerFired, o)
		o.ack.Init(s, KindWorkloadApp, ownerFired, o)
		o.rto.Reset(time.Millisecond)
		o.ack.Reset(2 * time.Millisecond)
		o.rto.Reset(3 * time.Millisecond) // re-keyed in place
		s.Step()
		o.rto.Stop()
	}
	arm() // the two events come from the freelist from now on
	if o.fired != 1 || o.rto.Pending() || o.ack.Pending() {
		t.Fatalf("fired %d, rto pending %v, ack pending %v: want the ack timer alone to have fired",
			o.fired, o.rto.Pending(), o.ack.Pending())
	}
	if allocs := testing.AllocsPerRun(1000, arm); allocs != 0 {
		t.Fatalf("embedded timers allocated %.1f objects per Init+Reset+fire+Stop, want 0", allocs)
	}
	o.rto.Reset(time.Millisecond)
	if !o.rto.Pending() || s.Len() != 1 {
		t.Fatal("Reset did not arm the embedded timer")
	}
	s.Run()
	if o.rto.Pending() || s.Len() != 0 {
		t.Fatal("the timer stayed pending after it fired")
	}
}

// Cancel must recycle the event: a schedule/cancel churn loop holds the heap
// at a bounded size and allocates nothing.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		ev := s.After(time.Second, fn)
		ev.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocated %.1f objects per op, want 0", allocs)
	}
	if s.Len() != 0 {
		t.Fatalf("heap retained %d events after cancel churn", s.Len())
	}
}
