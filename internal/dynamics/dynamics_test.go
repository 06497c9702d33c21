package dynamics

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/netsim"
)

func TestEventValidate(t *testing.T) {
	good := []Event{
		{At: time.Second, Kind: LinkDown, Link: 0},
		{Kind: LinkUp, Link: 1, Direction: DirReverse},
		{Kind: SetBandwidth, Link: 0, Bandwidth: netsim.Mbps},
		{Kind: SetGilbert, Link: 0, Gilbert: &netsim.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5}},
		{Kind: SetGilbert, Link: 0}, // nil Gilbert disables the model
	}
	for i, ev := range good {
		if err := ev.Validate(2); err != nil {
			t.Errorf("good event %d rejected: %v", i, err)
		}
	}
	bad := []Event{
		{At: -time.Second, Kind: LinkDown, Link: 0},
		{Kind: "teleport", Link: 0},
		{Kind: LinkDown, Link: 2},
		{Kind: LinkDown, Link: -1},
		{Kind: LinkDown, Link: 0, Direction: "sideways"},
		{Kind: SetBandwidth, Link: 0},
		{Kind: "set-loss", Link: 0}, // deleted kinds
		{Kind: "set-delay", Link: 0},
		{Kind: SetGilbert, Link: 0, Gilbert: &netsim.GilbertElliott{PGoodBad: 2}},
	}
	for i, ev := range bad {
		if err := ev.Validate(2); err == nil {
			t.Errorf("bad event %d accepted: %+v", i, ev)
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := []Event{
		{At: 5 * time.Second, Kind: LinkDown, Link: 0},
		{At: 8 * time.Second, Kind: SetGilbert, Link: 1, Direction: DirForward,
			Gilbert: &netsim.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.25, LossBad: 0.6}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || *out[1].Gilbert != *in[1].Gilbert {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}
