package dynamics

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func TestHostEventValidate(t *testing.T) {
	good := []Event{
		{At: time.Second, Kind: CMRestart, Host: "a"},
		{Kind: SetNotifyFaults, Host: "a", DropRate: 0.5, DelayRate: 0.5, Delay: time.Millisecond},
		{Kind: SetNotifyFaults, Host: "a"}, // zero rates disable injection
		{At: time.Second, Kind: HostMove, Host: "a"},
		{At: time.Second, Kind: HostMove, Host: "a", Policy: PolicyMigrate, Outage: time.Second},
		{At: time.Second, Kind: HostAttach, Host: "a"},
		// Host events ignore Link entirely: an out-of-range index must not
		// trip the link check.
		{At: time.Second, Kind: CMRestart, Host: "a", Link: 99},
	}
	for i, ev := range good {
		if err := ev.Validate(2); err != nil {
			t.Errorf("good host event %d rejected: %v", i, err)
		}
	}
	bad := []Event{
		{At: time.Second, Kind: CMRestart},                  // no host
		{Kind: SetNotifyFaults, Host: "a", DropRate: 1.5},   // rate > 1
		{Kind: SetNotifyFaults, Host: "a", DelayRate: -0.1}, // rate < 0
		{Kind: SetNotifyFaults, Host: "a", DelayRate: 0.5, Delay: -time.Second},
		{Kind: HostMove, Host: "a"},                                      // a move at t=0 makes no sense
		{At: time.Second, Kind: HostMove, Host: "a", Policy: "teleport"}, // unknown policy
		{At: time.Second, Kind: HostMove, Host: "a", Outage: -time.Second},
	}
	for i, ev := range bad {
		if err := ev.Validate(2); err == nil {
			t.Errorf("bad host event %d accepted: %+v", i, ev)
		}
	}
}

func TestGenCMRestartsExpansion(t *testing.T) {
	g := Generator{Kind: GenCMRestarts, Host: "srv", Seed: 7, Mean: 2 * time.Second, End: 20 * time.Second}
	if err := g.Validate(0); err != nil { // host generators need no links at all
		t.Fatalf("validate: %v", err)
	}
	evs := g.Expand()
	if len(evs) == 0 {
		t.Fatal("a 2s-mean process over 20s should produce restarts")
	}
	var last time.Duration
	for i, ev := range evs {
		if ev.Kind != CMRestart || ev.Host != "srv" {
			t.Fatalf("event %d = %+v, want cm-restart on srv", i, ev)
		}
		if ev.At <= last || ev.At >= 20*time.Second {
			t.Fatalf("event %d at %v out of order or range", i, ev.At)
		}
		last = ev.At
	}
	// Same seed, same process.
	again := g.Expand()
	if len(again) != len(evs) {
		t.Fatalf("expansion not deterministic: %d vs %d events", len(again), len(evs))
	}
	if err := (Generator{Kind: GenCMRestarts}).Validate(0); err == nil {
		t.Error("cm-restarts generator without a host accepted")
	}
}

// TestHostEventsFireThroughHook checks dispatch: host events reach the host
// hook (not the link resolver), and their outcome lands in the record.
func TestHostEventsFireThroughHook(t *testing.T) {
	sched := simtime.NewScheduler()
	_, resolve := testLinks(sched)
	var fired []Event
	tl := NewTimeline([]Event{
		{At: time.Second, Kind: CMRestart, Host: "a"},
		{At: 2 * time.Second, Kind: SetNotifyFaults, Host: "b", DropRate: 0.5},
	}, resolve, nil)
	tl.SetHostHook(func(ev Event) HostOutcome {
		fired = append(fired, ev)
		return HostOutcome{FlowsWiped: 3, RoutesChanged: 1}
	})
	tl.Install()
	tl.Advance(3 * time.Second)
	if len(fired) != 2 || fired[0].Host != "a" || fired[1].Host != "b" {
		t.Fatalf("host hook saw %+v", fired)
	}
	recs := tl.Records()
	if len(recs) != 2 || !recs[0].Fired || recs[0].FlowsWiped != 3 || recs[0].RoutesChanged != 1 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestPastEndEventsAreFlagged checks SetHorizon: events scheduled beyond the
// run's duration are recorded as PastEnd and never fire, while in-horizon
// events are untouched, even when Advance runs past the horizon.
func TestPastEndEventsAreFlagged(t *testing.T) {
	sched := simtime.NewScheduler()
	_, resolve := testLinks(sched)
	tl := NewTimeline([]Event{
		{At: time.Second, Kind: LinkDown, Link: 0},
		{At: time.Minute, Kind: CMRestart, Host: "a"},
	}, resolve, nil)
	tl.SetHostHook(func(Event) HostOutcome { return HostOutcome{} })
	tl.SetHorizon(10 * time.Second)
	tl.Install()
	if at, ok := tl.Next(); !ok || at != time.Second {
		t.Fatalf("Next() = %v, %v before the run, want 1s", at, ok)
	}
	tl.Advance(time.Hour)
	if at, ok := tl.Next(); ok {
		t.Fatalf("Next() = %v after every in-horizon event fired, want none", at)
	}
	recs := tl.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].PastEnd || !recs[0].Fired {
		t.Fatalf("in-horizon event mis-flagged: %+v", recs[0])
	}
	if !recs[1].PastEnd || recs[1].Fired {
		t.Fatalf("past-end event not flagged: %+v", recs[1])
	}
}
