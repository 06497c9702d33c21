package simtime

import (
	"testing"
	"time"
)

// An injected event must sort among same-timestamp local events by its
// insertion stamp: local events inserted before the remote sender's
// serialisation time run first, later ones after — the order one shared
// scheduler would have produced.
func TestInjectAtStampOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	rec := func(tag string) func() { return func() { order = append(order, tag) } }

	// Local event scheduled at t=0 for t=10ms: stamp 0.
	s.At(10*time.Millisecond, rec("early-local"))
	// Run to 2ms so later insertions carry a larger stamp.
	s.RunUntil(2 * time.Millisecond)
	// Local event scheduled at t=2ms for the same t=10ms: stamp 2ms.
	s.At(10*time.Millisecond, rec("late-local"))
	// Injection stamped 1ms: between the two local insertions.
	s.InjectAt(10*time.Millisecond, time.Millisecond, 0, 0, KindOther, func(any) { order = append(order, "injected") }, nil)
	s.Run()

	want := []string{"early-local", "injected", "late-local"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// Keyed events scheduled at one instant for one target time must run in key
// order regardless of insertion order, and an injection carrying a key must
// slot into that order — the double-tie rule that makes sharded runs agree
// with serial ones when two links deliver at the same nanosecond.
func TestKeyedTieOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	rec := func(tag string) func(any) { return func(any) { order = append(order, tag) } }

	at := 10 * time.Millisecond
	s.RunUntil(2 * time.Millisecond) // all insertions below share stamp 2ms
	s.InjectAt(at, s.Now(), 30, 0, KindOther, rec("key30"), nil)
	s.InjectAt(at, s.Now(), 10, 0, KindOther, rec("key10"), nil)
	s.Schedule(at, KindOther, rec("unkeyed"), nil) // key 0: ahead of every keyed event
	// An injection stamped at the same 2ms instant with a key between the two
	// local keyed events lands between them.
	s.InjectAt(at, 2*time.Millisecond, 20, 0, KindOther, rec("injected20"), nil)
	s.Run()

	want := []string{"unkeyed", "key10", "injected20", "key30"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// Among events sharing (at, stamp, key), the caller-supplied sub-sequence —
// the link-local delivery number in netsim — must decide the order, beating
// scheduler insertion order (seq). Insertions are made in descending sub
// order so any reliance on seq would reverse the result, and an injection
// carrying a sub must slot into the same order.
func TestSubSequenceTieOrdering(t *testing.T) {
	s := NewScheduler()
	var order []string
	rec := func(tag string) func(any) { return func(any) { order = append(order, tag) } }

	at := 10 * time.Millisecond
	s.RunUntil(2 * time.Millisecond) // all insertions below share stamp 2ms
	s.InjectAt(at, s.Now(), 7, 3, KindOther, rec("sub3"), nil)
	s.InjectAt(at, s.Now(), 7, 1, KindOther, rec("sub1"), nil)
	// Same key, sub between the two local ones, injected from "elsewhere".
	s.InjectAt(at, 2*time.Millisecond, 7, 2, KindOther, rec("sub2"), nil)
	// A different (higher) key sorts after regardless of its low sub.
	s.InjectAt(at, s.Now(), 9, 0, KindOther, rec("key9"), nil)
	s.Run()

	want := []string{"sub1", "sub2", "sub3", "key9"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestInjectAtPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(5*time.Millisecond, func() {})
	s.RunUntil(5 * time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("InjectAt into the past must panic (conservative sync violation)")
		}
	}()
	s.InjectAt(time.Millisecond, 0, 0, 0, KindOther, func(any) {}, nil)
}

// RunUntilBefore must stop short of events at exactly the horizon, and
// AdvanceTo must refuse to skip over pending work.
func TestRunUntilBeforeAndAdvanceTo(t *testing.T) {
	s := NewScheduler()
	ran := make(map[time.Duration]bool)
	for _, at := range []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		at := at
		s.At(at, func() { ran[at] = true })
	}
	s.RunUntilBefore(2 * time.Millisecond)
	if !ran[time.Millisecond] || ran[2*time.Millisecond] {
		t.Fatalf("RunUntilBefore(2ms) ran %v; want only the 1ms event", ran)
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("clock at %v after RunUntilBefore, want 1ms (last executed event)", s.Now())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo over a pending event must panic")
			}
		}()
		s.AdvanceTo(3 * time.Millisecond)
	}()
	s.AdvanceTo(2 * time.Millisecond)
	if s.Now() != 2*time.Millisecond {
		t.Fatalf("clock at %v after AdvanceTo(2ms)", s.Now())
	}
	s.Run()
	if !ran[2*time.Millisecond] || !ran[3*time.Millisecond] {
		t.Fatalf("remaining events did not run: %v", ran)
	}
}

// Injection must reuse the freelist like local scheduling does: a warm
// inject/fire cycle allocates nothing.
func TestInjectAtZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func(any) {}
	var arg struct{}
	for i := 0; i < 64; i++ {
		s.InjectAt(s.Now()+time.Microsecond, s.Now(), 0, 0, KindPktDeliver, fn, &arg)
		s.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.InjectAt(s.Now()+time.Microsecond, s.Now(), 0, 0, KindPktDeliver, fn, &arg)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("inject+fire allocated %.1f objects per op, want 0", allocs)
	}
}
