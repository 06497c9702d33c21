package faults

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/race"
	"repro/internal/scenario"
)

// placementSpec is the paper's Fig 3 path shape as the p2p scenario builds it:
// flows bulk transfers of 200 000 bytes each from sender to receiver, with
// the given one-way delay (seconds) and a 120 s deadline.
func placementSpec(t *testing.T, flows int, delay float64) scenario.Spec {
	t.Helper()
	spec, err := scenario.LookupParams("p2p", map[string]float64{
		"flows": float64(flows), "bytes": 200000, "delay": delay, "duration": 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// runWithRestart runs spec with one cm-restart of sender at at and returns
// why the run failed the placement oracle ("" when every flow completed and
// the invariant checker is clean).
func runWithRestart(t *testing.T, spec scenario.Spec, at time.Duration) string {
	t.Helper()
	spec.Events = []dynamics.Event{{At: at, Kind: dynamics.CMRestart, Host: "sender"}}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Flows {
		if !f.Completed {
			return fmt.Sprintf("flow %d stranded at %d bytes", f.Flow, f.Delivered)
		}
	}
	if vs := Check(res); len(vs) != 0 {
		return fmt.Sprintf("violations %v", vs)
	}
	return ""
}

// placements is the number of evenly spaced restart instants the sweep tries
// over the undisturbed transfer.
const placements = 2000

// TestRestartPlacementNeverStrands restarts the sender's CM once, at each of
// 2 000 evenly spaced instants of an undisturbed p2p transfer, and requires
// every flow to complete with a clean invariant check. A restart that lands
// while a flow waits for a grant with nothing in flight leaves no RTO armed
// and no ACK coming, so a client that only noticed the restart at its next
// call to the CM stranded its flow for good (169 of the 2 000 placements at
// two flows and 30 ms, 295 at four flows and no delay). -short and the race
// detector stride the placements.
func TestRestartPlacementNeverStrands(t *testing.T) {
	stride := 1
	if testing.Short() || race.Enabled {
		stride = 41
	}
	for _, flows := range []int{1, 2, 4} {
		for _, delay := range []float64{0, 0.03} {
			t.Run(fmt.Sprintf("flows=%d/delay=%g", flows, delay), func(t *testing.T) {
				spec := placementSpec(t, flows, delay)
				base, err := scenario.Run(spec)
				if err != nil {
					t.Fatal(err)
				}
				var end time.Duration
				for _, f := range base.Flows {
					if !f.Completed {
						t.Fatalf("undisturbed flow %d did not complete", f.Flow)
					}
					end = max(end, f.Finished)
				}
				stranded, first := 0, time.Duration(0)
				for i := 0; i < placements; i += stride {
					at := end * time.Duration(i) / placements
					if why := runWithRestart(t, spec, at); why != "" {
						if stranded == 0 {
							first = at
							t.Errorf("restart at %v: %s", at, why)
						}
						stranded++
					}
				}
				if stranded > 0 {
					t.Errorf("%d of %d placements failed, the first at %v", stranded, (placements+stride-1)/stride, first)
				}
			})
		}
	}
}

// TestRestartAtFirstStrandingInstant names one stranding placement of the
// sweep at two flows and 30 ms: 60.355 ms, just after the handshakes, when
// one flow waits for a grant with nothing in flight. At that instant the
// flow used to deliver 0 bytes in 120 s while faults.Check found nothing.
func TestRestartAtFirstStrandingInstant(t *testing.T) {
	if why := runWithRestart(t, placementSpec(t, 2, 0.03), 60355*time.Microsecond); why != "" {
		t.Fatal(why)
	}
}
