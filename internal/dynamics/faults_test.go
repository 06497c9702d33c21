package dynamics

import (
	"testing"
	"time"
)

func TestHostEventValidate(t *testing.T) {
	good := []Event{
		{At: time.Second, Kind: CMRestart, Host: "a"},
		{Kind: SetNotifyFaults, Host: "a", DropRate: 0.5, DelayRate: 0.5, Delay: time.Millisecond},
		{Kind: SetNotifyFaults, Host: "a"}, // zero rates disable injection
		{At: time.Second, Kind: HostMove, Host: "a"},
		{At: time.Second, Kind: HostMove, Host: "a", Outage: time.Second},
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
		{Kind: HostMove, Host: "a"}, // a move at t=0 makes no sense
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
