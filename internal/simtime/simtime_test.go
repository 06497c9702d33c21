package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", s.Len())
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := NewScheduler()
	var got []time.Duration
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		d := d
		s.At(d, func() { got = append(got, d) })
	}
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d ran for time %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTiesBreakInSchedulingOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken order %v, want FIFO", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler()
	var at time.Duration
	s.At(42*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != 42*time.Millisecond {
		t.Fatalf("clock at event time = %v, want 42ms", at)
	}
	if s.Now() != 42*time.Millisecond {
		t.Fatalf("final clock = %v, want 42ms", s.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewScheduler()
	var times []time.Duration
	s.At(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 1 || times[0] != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want [15ms]", times)
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	var fired time.Duration = -1
	s.At(10*time.Millisecond, func() {
		s.At(2*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNegativeAfterClampsToZeroDelay(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("event scheduled with negative delay never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved to %v for a clamped negative delay", s.Now())
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := NewScheduler()
	ran := false
	ev := s.At(time.Millisecond, func() { ran = true })
	ev.Cancel()
	s.Run()
	if ran {
		t.Fatal("cancelled event still ran")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := NewScheduler()
	if s.Step() {
		t.Fatal("Step() on empty scheduler returned true")
	}
	s.At(time.Millisecond, func() {})
	if !s.Step() {
		t.Fatal("Step() with pending event returned false")
	}
	if s.Step() {
		t.Fatal("Step() after draining returned true")
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	s := NewScheduler()
	var ran []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		s.At(d, func() { ran = append(ran, d) })
	}
	s.RunUntil(12 * time.Millisecond)
	if len(ran) != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", len(ran))
	}
	if s.Now() != 12*time.Millisecond {
		t.Fatalf("clock after RunUntil = %v, want 12ms", s.Now())
	}
	// The remaining events should still run.
	s.Run()
	if len(ran) != 4 {
		t.Fatalf("after Run, executed %d events total, want 4", len(ran))
	}
}

func TestRunUntilIncludesEventsAtHorizon(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(10*time.Millisecond, func() { ran = true })
	s.RunUntil(10 * time.Millisecond)
	if !ran {
		t.Fatal("event exactly at horizon did not run")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler()
	s.At(3*time.Millisecond, func() {})
	s.RunFor(5 * time.Millisecond)
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", s.Now())
	}
	s.RunFor(5 * time.Millisecond)
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock = %v, want 10ms", s.Now())
	}
}

func TestRunUntilHonoursEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	var count int
	var reschedule func()
	reschedule = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, reschedule)
		}
	}
	s.After(time.Millisecond, reschedule)
	s.RunUntil(3 * time.Millisecond)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (one per millisecond within horizon)", count)
	}
}

func TestNilFunctionPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil function")
		}
	}()
	s.At(time.Second, nil)
}

// newTimer returns a timer on s whose callback is fn.
func newTimer(s *Scheduler, fn func()) *EventTimer {
	t := new(EventTimer)
	t.Init(s, KindOther, callFunc, fn)
	return t
}

func TestTimerFiresOnce(t *testing.T) {
	s := NewScheduler()
	count := 0
	tm := newTimer(s, func() { count++ })
	tm.Reset(10 * time.Millisecond)
	if !tm.Pending() {
		t.Fatal("timer not pending after Reset")
	}
	s.Run()
	if count != 1 {
		t.Fatalf("timer fired %d times, want 1", count)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after firing")
	}
}

func TestTimerResetReplacesPrevious(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	tm := newTimer(s, func() { fired = append(fired, s.Now()) })
	tm.Reset(10 * time.Millisecond)
	tm.Reset(20 * time.Millisecond)
	s.Run()
	if len(fired) != 1 || fired[0] != 20*time.Millisecond {
		t.Fatalf("timer fired at %v, want single firing at 20ms", fired)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	tm := newTimer(s, func() { count++ })
	tm.Reset(10 * time.Millisecond)
	tm.Stop()
	if tm.Pending() {
		t.Fatal("timer pending after Stop")
	}
	s.Run()
	if count != 0 {
		t.Fatalf("stopped timer fired %d times", count)
	}
	// Stopping again must be a no-op.
	tm.Stop()
}

func TestTimerRearmAfterFire(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tm *EventTimer
	tm = newTimer(s, func() {
		count++
		if count < 3 {
			tm.Reset(5 * time.Millisecond)
		}
	})
	tm.Reset(5 * time.Millisecond)
	s.Run()
	if count != 3 {
		t.Fatalf("rearming timer fired %d times, want 3", count)
	}
	if s.Now() != 15*time.Millisecond {
		t.Fatalf("clock = %v, want 15ms", s.Now())
	}
}

func TestExecutedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Executed() != 7 {
		t.Fatalf("Executed() = %d, want 7", s.Executed())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	cases := []time.Duration{0, time.Millisecond, time.Second, 90 * time.Minute}
	for _, d := range cases {
		if got := FromSeconds(Seconds(d)); got != d {
			t.Errorf("FromSeconds(Seconds(%v)) = %v", d, got)
		}
	}
	if FromSeconds(-1) != 0 {
		t.Error("FromSeconds(-1) should clamp to 0")
	}
	if FromSeconds(1e300) <= 0 {
		t.Error("FromSeconds(huge) should saturate to a positive duration")
	}
}

// Property: regardless of the order in which events are scheduled, they
// execute in non-decreasing timestamp order and the clock never moves
// backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) > 200 {
			delaysMs = delaysMs[:200]
		}
		s := NewScheduler()
		var ran []time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			s.At(d, func() { ran = append(ran, s.Now()) })
		}
		s.Run()
		if len(ran) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] }) {
			return false
		}
		// The set of execution times must equal the set of scheduled times.
		want := make([]time.Duration, len(delaysMs))
		for i, ms := range delaysMs {
			want[i] = time.Duration(ms) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if ran[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of events runs exactly the others.
func TestPropertyCancellation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		total := int(n%64) + 1
		type rec struct {
			ev     *Event
			cancel bool
			ran    bool
		}
		recs := make([]*rec, total)
		for i := 0; i < total; i++ {
			r := &rec{cancel: rng.Intn(2) == 0}
			r.ev = s.At(time.Duration(rng.Intn(100))*time.Millisecond, func() { r.ran = true })
			recs[i] = r
		}
		for _, r := range recs {
			if r.cancel {
				r.ev.Cancel()
			}
		}
		s.Run()
		for _, r := range recs {
			if r.cancel && r.ran {
				return false
			}
			if !r.cancel && !r.ran {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving RunUntil calls with arbitrary horizons never loses
// events and never executes an event after a later-horizon event.
func TestPropertyRunUntilMonotone(t *testing.T) {
	f := func(delaysMs []uint8, horizonsMs []uint8) bool {
		s := NewScheduler()
		executed := 0
		for _, ms := range delaysMs {
			s.At(time.Duration(ms)*time.Millisecond, func() { executed++ })
		}
		prev := time.Duration(0)
		for _, h := range horizonsMs {
			horizon := time.Duration(h) * time.Millisecond
			if horizon < prev {
				horizon = prev
			}
			s.RunUntil(horizon)
			if s.Now() != horizon {
				return false
			}
			prev = horizon
		}
		s.Run()
		return executed == len(delaysMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
