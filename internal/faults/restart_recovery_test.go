package faults

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/scenario"
)

// restartSpec is a CM TCP stream over one bottleneck, truncated to the given
// duration, with the sender's CM restarting at t=5s when fault is set.
// Without generators the spec's evolution is duration-independent, so runs
// cut at different times share an identical prefix and delivered-byte deltas
// between cuts measure throughput over that interval.
func restartSpec(duration time.Duration, fault bool) scenario.Spec {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    8 * netsim.Mbps,
			Delay:        10 * time.Millisecond,
			QueuePackets: 120,
		},
		Workloads: []scenario.Workload{{
			Kind: scenario.KindStream, From: "sender", To: "receiver", CC: scenario.CCCM,
		}},
		Duration: duration,
		Seed:     1,
	})
	if fault {
		spec.Events = []dynamics.Event{
			{At: 5 * time.Second, Kind: dynamics.CMRestart, Host: "sender"},
		}
	}
	return spec
}

// TestRestartCollapseAndRecovery is the cm-restart acceptance check: wiping
// the sender's CM mid-stream visibly dents throughput right after the fault
// (grants, window and RTT state die with the process and the window rebuilds
// from one MTU), and the re-attached client recovers to near the un-faulted
// rate within three seconds. Both effects are measured against a no-fault
// twin of the run over the same intervals.
func TestRestartCollapseAndRecovery(t *testing.T) {
	delivered := func(d time.Duration, fault bool) int64 {
		t.Helper()
		res, err := scenario.Run(restartSpec(d, fault))
		if err != nil {
			t.Fatal(err)
		}
		if vs := Check(res); len(vs) != 0 {
			t.Fatalf("run to %v violated invariants: %v", d, vs)
		}
		var total int64
		for _, f := range res.Flows {
			total += f.Delivered
		}
		return total
	}
	window := func(from, to time.Duration, fault bool) float64 {
		return float64(delivered(to, fault)-delivered(from, fault)) / (to - from).Seconds()
	}

	// Collapse: in the half second after the wipe the faulted run delivers
	// well below what the un-faulted twin does over the same interval.
	dipFault := window(5*time.Second, 5500*time.Millisecond, true)
	dipBase := window(5*time.Second, 5500*time.Millisecond, false)
	if dipBase <= 0 {
		t.Fatal("baseline carries no traffic; test premise broken")
	}
	if dipFault >= 0.85*dipBase {
		t.Errorf("no collapse after restart: faulted %.0f B/s vs baseline %.0f B/s over [5s,5.5s]",
			dipFault, dipBase)
	}
	// Recovery: by 3s after the fault, a 2s window carries at least 80% of
	// the un-faulted rate.
	recFault := window(8*time.Second, 10*time.Second, true)
	recBase := window(8*time.Second, 10*time.Second, false)
	if recFault < 0.8*recBase {
		t.Errorf("no recovery: faulted %.0f B/s vs baseline %.0f B/s over [8s,10s]",
			recFault, recBase)
	}

	// The end-of-run CM state must show exactly one restart, a matching
	// epoch, and grant conservation across the wipe.
	res, err := scenario.Run(restartSpec(10*time.Second, true))
	if err != nil {
		t.Fatal(err)
	}
	var cmr *scenario.CMResult
	for i := range res.CMs {
		if res.CMs[i].Host == "sender" {
			cmr = &res.CMs[i]
		}
	}
	if cmr == nil {
		t.Fatal("no CM result for sender")
	}
	if cmr.Epoch != 1 || cmr.Restarts != 1 {
		t.Fatalf("epoch=%d restarts=%d, want 1/1", cmr.Epoch, cmr.Restarts)
	}
	if got := cmr.GrantsIssued - cmr.GrantsReclaimed - int64(cmr.OutstandingGrants); got != 0 {
		t.Fatalf("grant conservation off by %d across the restart", got)
	}
}

// TestChurnSeed15KeepsGoing is the churn soak's stall at scale: with seed 15
// the s0→d0 stream used to stop for good at 37 131 632 bytes, when one of
// s0's CM restarts landed while it waited for a grant with nothing in flight.
// Over 500 s it must deliver more than that, with a clean invariant check,
// and serial must equal two shards byte for byte.
func TestChurnSeed15KeepsGoing(t *testing.T) {
	spec := scenario.Churn(scenario.ChurnParams{Seed: 15, Duration: 500 * time.Second})
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(res); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
	var stream int64
	for _, f := range res.Flows {
		if f.Workload == 0 {
			stream += f.Delivered
		}
	}
	t.Logf("s0→d0 stream delivered %d bytes", stream)
	if stream <= 37_131_632 {
		t.Errorf("s0→d0 stream delivered %d bytes in 500 s, stalled", stream)
	}
	spec.Shards = 2
	sharded, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	kj, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(kj) {
		t.Error("serial and 2-shard results differ")
	}
}
