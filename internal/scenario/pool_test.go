package scenario

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/race"
)

// mallocsPerHop runs spec twice and returns the second run's heap allocations
// per packet-hop (a packet serialised by one link), over RunToEnd alone or,
// with whole set, over Build, Start, RunToEnd and Finish — cmperf's
// allocs_per_pkt. The first run fills the packet and payload pools, as the
// earlier repetitions of any campaign or benchmark do.
func mallocsPerHop(t *testing.T, spec Spec, whole bool) float64 {
	t.Helper()
	var mallocs uint64
	var hops int
	for i := 0; i < 2; i++ {
		var before, started, ran, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&started)
		sim.RunToEnd()
		runtime.ReadMemStats(&ran)
		res := sim.Finish()
		runtime.ReadMemStats(&after)
		mallocs = ran.Mallocs - started.Mallocs
		if whole {
			mallocs = after.Mallocs - before.Mallocs
		}
		hops = 0
		for _, l := range res.Links {
			hops += l.SentPackets
		}
	}
	if hops == 0 {
		t.Fatal("run moved no packets")
	}
	t.Logf("%s: %d mallocs over %d packet-hops", spec.Name, mallocs, hops)
	return float64(mallocs) / float64(hops)
}

// The steady-state data path allocates nothing per packet: packets, TCP
// segments, UDP datagrams and feedback reports are pooled and die together
// (docs/PERF.md). The micro gates (netsim, node, tcp, udp) each cover one
// layer; these cover whole runs, so the next per-packet allocation anywhere
// between cmapp_send and the receiver's Handle fails a test instead of
// surfacing in a benchmark. What remains in the budget is per-connection and
// per-event work: timers, probe series growth, routing messages, faults.
//
// The ISP row is the other kind of run: ten thousand hosts and links that
// mostly idle and short web transfers of a dozen packets, where building the
// topology and opening and closing connections is the work. It is budgeted
// over the whole of Build..Finish, as cmperf's allocs_per_pkt on isp_web is
// (0.41 before hosts, links and flow drivers came from slabs and an endpoint
// became one object; 0.07 after).
func TestWholeRunAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	fattree, err := FatTree(FatTreeParams{K: 4, Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	fattree.RouteSync = RouteSyncProtocol
	isp, err := ISP(ISPParams{Aggs: 8, AccessPerAgg: 10, HostsPerAccess: 25, Clients: 64, Requests: 64, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec   Spec
		whole  bool
		budget float64
	}{
		{DumbbellGrid(GridParams{CC: CCCM, Duration: 5 * time.Second}), false, 0.02},
		{DumbbellGrid(GridParams{CC: CCNative, Duration: 5 * time.Second}), false, 0.02},
		{fattree, false, 0.02},
		{Churn(ChurnParams{Duration: 25 * time.Second}), false, 0.05},
		{isp, true, 0.15},
	} {
		if got := mallocsPerHop(t, tc.spec, tc.whole); got > tc.budget {
			over := "RunToEnd"
			if tc.whole {
				over = "Build..Finish"
			}
			t.Errorf("%s: %.4f mallocs per packet-hop over %s, budget %.2f", tc.spec.Name, got, over, tc.budget)
		}
	}
}

// A finished connection costs its driver's slab entry (allocated by Start) and
// two time-wait records with their host bindings, nothing else: endpoints with
// the timers and congestion controllers inside them and CM flows go when the
// connection does. Measured as live heap after RunToEnd minus live heap after
// Start on a scaled-down ISP web run, per completed request: 408 bytes; before
// connections closed this was ~2.7 KiB. (TestAtRestBudgets has the rest of a
// flow's life and what a host and a link cost.)
func TestFinishedConnectionsRetainLittle(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations count as live heap")
	}
	spec, err := ISP(ISPParams{Aggs: 4, AccessPerAgg: 5, HostsPerAccess: 10, Clients: 64, Requests: 64, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	retained := measure(sim.RunToEnd).live
	completed := 0
	for _, f := range sim.Finish().Flows {
		if f.Completed {
			completed++
		}
	}
	if completed < len(sim.drivers)*9/10 {
		t.Fatalf("only %d of %d requests completed", completed, len(sim.drivers))
	}
	perRequest := retained / float64(completed)
	t.Logf("%d completed requests, %.0f bytes retained each", completed, perRequest)
	if perRequest > 500 {
		t.Errorf("a completed request retains %.0f bytes between Start and Finish, budget 500", perRequest)
	}
}
