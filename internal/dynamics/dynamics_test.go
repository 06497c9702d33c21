package dynamics

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

func testLinks(sched *simtime.Scheduler) (*netsim.Duplex, Resolver) {
	d := netsim.NewDuplex(sched, netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps, QueuePackets: 10})
	sink := netsim.ReceiverFunc(func(p *netsim.Packet) { p.Release() })
	d.Connect(sink, sink)
	resolve := func(link int, dir string) []*netsim.Link {
		switch dir {
		case DirForward:
			return []*netsim.Link{d.Forward}
		case DirReverse:
			return []*netsim.Link{d.Reverse}
		default:
			return []*netsim.Link{d.Forward, d.Reverse}
		}
	}
	return d, resolve
}

func TestEventValidate(t *testing.T) {
	good := []Event{
		{At: time.Second, Kind: LinkDown, Link: 0},
		{Kind: LinkUp, Link: 1, Direction: DirReverse},
		{Kind: SetBandwidth, Link: 0, Bandwidth: netsim.Mbps},
		{Kind: SetDelay, Link: 0, Delay: 0},
		{Kind: SetLoss, Link: 0, LossRate: 0.5},
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
		{Kind: SetDelay, Link: 0, Delay: -time.Second},
		{Kind: SetLoss, Link: 0, LossRate: 1.5},
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

// TestTimelineFiresInOrder checks that events apply at their declared virtual
// times, to the declared direction, and that records report execution.
func TestTimelineFiresInOrder(t *testing.T) {
	sched := simtime.NewScheduler()
	d, resolve := testLinks(sched)
	tl := NewTimeline([]Event{
		{At: 0, Kind: SetBandwidth, Link: 0, Direction: DirReverse, Bandwidth: 64 * netsim.Kbps},
		{At: time.Second, Kind: LinkDown, Link: 0},
		{At: 2 * time.Second, Kind: LinkUp, Link: 0},
		{At: time.Hour, Kind: SetLoss, Link: 0, LossRate: 0.1}, // beyond the run
	}, resolve, nil)
	tl.Install()

	// The time-zero event applied during Install, before any Advance.
	if got := d.Reverse.Config().Bandwidth; got != 64*netsim.Kbps {
		t.Fatalf("reverse bandwidth %v before run, want 64Kbps", got)
	}
	if got := d.Forward.Config().Bandwidth; got != 10*netsim.Mbps {
		t.Fatalf("forward bandwidth %v changed by a reverse-only event", got)
	}

	tl.Advance(1500 * time.Millisecond)
	if !d.Forward.IsDown() || !d.Reverse.IsDown() {
		t.Fatal("both directions should be down at t=1.5s")
	}
	tl.Advance(3 * time.Second)
	if d.Forward.IsDown() || d.Reverse.IsDown() {
		t.Fatal("both directions should be up at t=3s")
	}

	recs := tl.Records()
	for i, want := range []bool{true, true, true, false} {
		if recs[i].Fired != want {
			t.Errorf("record %d fired = %v, want %v", i, recs[i].Fired, want)
		}
	}
}

// TestTimelineTopologyHook checks that only link up/down events invoke the
// route-recomputation hook and that its count lands in the record.
func TestTimelineTopologyHook(t *testing.T) {
	sched := simtime.NewScheduler()
	_, resolve := testLinks(sched)
	var hookCalls int
	tl := NewTimeline([]Event{
		{At: time.Second, Kind: SetLoss, Link: 0, LossRate: 0.2},
		{At: 2 * time.Second, Kind: LinkDown, Link: 0},
		{At: 3 * time.Second, Kind: LinkUp, Link: 0},
	}, resolve, func(ev Event) int {
		hookCalls++
		return 7
	})
	tl.Install()
	tl.Advance(5 * time.Second)

	if hookCalls != 2 {
		t.Fatalf("topology hook called %d times, want 2 (down+up only)", hookCalls)
	}
	recs := tl.Records()
	if recs[0].RoutesChanged != 0 || recs[1].RoutesChanged != 7 || recs[2].RoutesChanged != 7 {
		t.Fatalf("routes-changed records wrong: %+v", recs)
	}
}
