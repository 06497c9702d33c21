package libcm

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
)

// TestDroppedSendGrantDoesNotStrandFlow: a cmapp_send notification lost on
// the kernel/user crossing kills that grant, but the flow must stay usable —
// a fresh cm_request gets a fresh grant through.
func TestDroppedSendGrantDoesNotStrandFlow(t *testing.T) {
	s, c, l := setup(t, ModeAuto)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(70)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var sends int
	l.RegisterSend(f, func(cm.FlowID) { sends++ })

	in.SetRates(1, 0, 0) // drop everything
	l.Request(f)
	s.RunFor(10 * time.Millisecond)
	if sends != 0 {
		t.Fatal("dropped notification still delivered a callback")
	}
	if in.Stats().DroppedSends != 1 {
		t.Fatalf("DroppedSends = %d", in.Stats().DroppedSends)
	}

	// The application's recovery move is simply to ask again. The dead grant
	// still occupies the 1-MTU initial window, so the re-request is granted
	// once the CM's grant timeout (500ms) reclaims it.
	in.SetRates(0, 0, 0)
	l.Request(f)
	s.RunFor(2 * time.Second)
	if sends != 1 {
		t.Fatalf("re-request after a dropped grant delivered %d callbacks, want 1", sends)
	}
	if audit := c.Audit(); audit.NegativePending != 0 {
		t.Fatalf("pending-request accounting corrupted: %+v", audit)
	}
}

// TestDelayedSendIsDeliveredLate: a delayed cmapp_send arrives after the
// injected latency instead of being lost.
func TestDelayedSendIsDeliveredLate(t *testing.T) {
	s, _, l := setup(t, ModeAuto)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(71)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var sends int
	l.RegisterSend(f, func(cm.FlowID) { sends++ })

	in.SetRates(0, 1, 5*time.Millisecond)
	l.Request(f)
	s.RunFor(2 * time.Millisecond)
	if sends != 0 {
		t.Fatal("delayed notification arrived early")
	}
	s.RunFor(10 * time.Millisecond)
	if sends != 1 || in.Stats().DelayedSends != 1 {
		t.Fatalf("sends = %d, DelayedSends = %d", sends, in.Stats().DelayedSends)
	}
}

// TestDelayedUpdateNeverOverwritesNewerStatus: a cmapp_update delayed across
// a newer delivery must be discarded on arrival, not applied over the newer
// rate (the paper's rate callbacks promise the *current* sending rate).
func TestDelayedUpdateNeverOverwritesNewerStatus(t *testing.T) {
	s, c, l := setup(t, ModeManual)
	in := NewInjector(42)
	l.SetInjector(in)
	src, dst := addrs(72)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var got []cm.Status
	l.RegisterUpdate(f, func(_ cm.FlowID, st cm.Status) { got = append(got, st) })
	l.Thresh(f, 1.0001, 1.0001) // report every change

	// First status change is delayed in flight...
	in.SetRates(0, 1, 5*time.Millisecond)
	c.Update(f, 1000, 1000, cm.NoLoss, 100*time.Millisecond)
	// ...and a second, newer one — a large RTT change, so it certainly
	// crosses the report threshold — overtakes it.
	in.SetRates(0, 0, 0)
	c.Update(f, 1000, 1000, cm.NoLoss, 10*time.Millisecond)
	s.RunFor(time.Millisecond)
	l.Dispatch()
	if len(got) != 1 {
		t.Fatalf("got %d statuses before the delayed arrival, want 1", len(got))
	}
	newest, _ := c.Query(f)
	if got[0].SRTT != newest.SRTT {
		t.Fatalf("delivered status is not the newest: %+v vs %+v", got[0], newest)
	}

	// The stale delivery lands now; it must be dropped, not dispatched.
	s.RunFor(10 * time.Millisecond)
	if l.Dispatch() != 0 {
		t.Fatal("stale delayed update was dispatched")
	}
	if in.Stats().StaleUpdatesDropped != 1 {
		t.Fatalf("StaleUpdatesDropped = %d, want 1", in.Stats().StaleUpdatesDropped)
	}
	if len(got) != 1 {
		t.Fatalf("stale status reached the application: %+v", got)
	}
}

// TestLibResyncsAfterCMRestart: any libcm call after a CM restart first
// re-syncs the library (dead callbacks and queued notifications cleared, the
// restart handler told to re-open), instead of operating on dead handles.
func TestLibResyncsAfterCMRestart(t *testing.T) {
	s, c, l := setup(t, ModeAuto)
	src, dst := addrs(73)
	f := l.Open(netsim.ProtoUDP, src, dst)
	var restarts int
	var reopened cm.FlowID
	l.SetRestartHandler(func() {
		restarts++
		reopened = l.Open(netsim.ProtoUDP, src, dst)
		l.RegisterSend(reopened, func(cm.FlowID) {})
	})
	l.RegisterSend(f, func(cm.FlowID) { t.Error("callback for a pre-restart flow") })
	l.Request(f)

	c.Restart()
	// The queued pre-restart grant must not be dispatched after the resync.
	l.Request(f) // triggers checkEpoch; f is stale and the call is a miss
	s.RunFor(10 * time.Millisecond)

	if restarts != 1 || l.Stats().Resyncs != 1 {
		t.Fatalf("restarts = %d, Resyncs = %d", restarts, l.Stats().Resyncs)
	}
	if reopened == f || reopened == 0 {
		t.Fatalf("restart handler reopened %v (old %v)", reopened, f)
	}
	if _, ok := l.Query(reopened); !ok {
		t.Fatal("reopened flow unusable")
	}
	if c.Accounting().StaleFlowCalls == 0 {
		t.Fatal("the stale Request should have been counted")
	}
	_ = s
}

// The injector's random source is created by the first verdict that draws,
// from the seed fixed at construction. A host that turns faults on in the
// middle of a run — after any number of fault-free notifications, which draw
// nothing — must get the verdicts an injector that built its source up front
// gave: the stream of rand.NewSource(seed), from its beginning.
func TestInjectorLazyRNGMatchesEagerStream(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		in := NewInjector(seed)
		for i := 0; i < 1000; i++ {
			if v := in.verdict(); v != faultDeliver {
				t.Fatalf("seed %d: disabled injector returned verdict %d", seed, v)
			}
		}
		if in.rng != nil {
			t.Fatalf("seed %d: a disabled injector built its random source", seed)
		}
		const drop, delay = 0.3, 0.4
		in.SetRates(drop, delay, time.Millisecond)
		eagerSeed := seed
		if eagerSeed == 0 {
			eagerSeed = 1
		}
		eager := rand.New(rand.NewSource(eagerSeed))
		for i := 0; i < 1000; i++ {
			want := faultDeliver
			if r := eager.Float64(); r < drop {
				want = faultDrop
			} else if r < drop+delay {
				want = faultDelay
			}
			if got := in.verdict(); got != want {
				t.Fatalf("seed %d: verdict %d is %d, an eager source gives %d", seed, i, got, want)
			}
			if i == 500 {
				// Turning faults off and on again neither restarts nor
				// advances the stream.
				in.SetRates(0, 0, 0)
				in.verdict()
				in.SetRates(drop, delay, time.Millisecond)
			}
		}
	}
	var kept *Injector
	if allocs := testing.AllocsPerRun(100, func() { kept = NewInjector(7) }); allocs != 1 || kept.rng != nil {
		t.Errorf("NewInjector allocated %.0f objects, want the Injector alone", allocs)
	}
}
