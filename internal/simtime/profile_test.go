package simtime

import (
	"testing"
	"time"
)

// An armed profiler must attribute every fired event to its tagged kind with
// a plausible (non-negative, monotone) cost, and untagged events to KindOther.
func TestProfileAttributesKinds(t *testing.T) {
	s := NewScheduler()
	p := s.EnableProfile()
	if s.EnableProfile() != p {
		t.Fatal("EnableProfile must be idempotent and return the same profile")
	}

	fn := func(any) {}
	s.Schedule(time.Millisecond, KindRouteUpdate, fn, nil)
	s.Schedule(s.Now()+2*time.Millisecond, KindRouteUpdate, fn, nil)
	s.Schedule(3*time.Millisecond, KindPktDeliver, fn, nil)
	s.Schedule(s.Now()+3*time.Millisecond, KindPktDeliver, fn, nil)
	s.InjectAt(4*time.Millisecond, s.Now(), 1, 1, KindPktDeliver, fn, nil)
	s.InjectAt(5*time.Millisecond, 0, 1, 2, KindPktDeliver, fn, nil)
	s.At(6*time.Millisecond, func() {}) // untagged
	var tm EventTimer
	tm.Init(s, KindCMGrant, fn, nil)
	tm.Reset(7 * time.Millisecond)
	s.Run()

	snap := p.Snapshot()
	wantCounts := map[Kind]uint64{
		KindRouteUpdate: 2,
		KindPktDeliver:  4,
		KindOther:       1,
		KindCMGrant:     1,
	}
	for k, want := range wantCounts {
		if got := snap[k].Count; got != want {
			t.Errorf("kind %v: count %d, want %d", k, got, want)
		}
		if snap[k].TotalNs < 0 || snap[k].MaxNs < 0 || snap[k].TotalNs < snap[k].MaxNs {
			t.Errorf("kind %v: implausible aggregates %+v", k, snap[k])
		}
	}
	if got, want := snap.Events(), uint64(8); got != want {
		t.Errorf("total events %d, want %d", got, want)
	}
}

// Snapshot deltas (the per-window timeline breakdown) must subtract counts
// and totals; merged snapshots (per-shard roll-up) must add them.
func TestProfileSnapshotDeltaAndAdd(t *testing.T) {
	a := ProfileSnapshot{}
	a[KindPktDeliver] = KindAgg{Count: 10, TotalNs: 1000, MaxNs: 300}
	b := a
	b[KindPktDeliver] = KindAgg{Count: 25, TotalNs: 2500, MaxNs: 400}
	b[KindCMGrant] = KindAgg{Count: 5, TotalNs: 100, MaxNs: 50}

	d := b.Delta(a)
	if d[KindPktDeliver] != (KindAgg{Count: 15, TotalNs: 1500, MaxNs: 400}) {
		t.Errorf("delta pkt-deliver = %+v", d[KindPktDeliver])
	}
	if d[KindCMGrant] != (KindAgg{Count: 5, TotalNs: 100, MaxNs: 50}) {
		t.Errorf("delta cm-grant = %+v", d[KindCMGrant])
	}

	sum := a.Add(b)
	if sum[KindPktDeliver] != (KindAgg{Count: 35, TotalNs: 3500, MaxNs: 400}) {
		t.Errorf("sum pkt-deliver = %+v", sum[KindPktDeliver])
	}
	if sum.Events() != 40 || sum.TotalNs() != 3600 {
		t.Errorf("sum totals events=%d ns=%d", sum.Events(), sum.TotalNs())
	}
}

// Kind names are part of the report/timeline wire format; pin them.
func TestKindNamesStable(t *testing.T) {
	want := []string{
		"other", "pkt-transmit", "pkt-deliver", "cm-grant", "cm-notify",
		"route-update", "probe-sample", "dynamics-event", "workload-app",
	}
	if int(NumKinds) != len(want) {
		t.Fatalf("NumKinds = %d, want %d", NumKinds, len(want))
	}
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() != want[k] {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want[k])
		}
	}
	if Kind(200).String() != "invalid" {
		t.Errorf("out-of-range kind name = %q", Kind(200).String())
	}
}

// Arming the profiler must not allocate in the schedule/fire steady state:
// attribution is a time read and a fixed-size array update.
func TestProfiledFireZeroAlloc(t *testing.T) {
	s := NewScheduler()
	s.EnableProfile()
	fn := func(any) {}
	var arg struct{}
	for i := 0; i < 64; i++ {
		s.Schedule(s.Now()+time.Microsecond, KindPktTransmit, fn, &arg)
		s.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Schedule(s.Now()+time.Microsecond, KindPktTransmit, fn, &arg)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("profiled schedule+fire allocated %.1f objects per op, want 0", allocs)
	}
}
