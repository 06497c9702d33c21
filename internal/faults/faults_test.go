package faults

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func churnResult(t *testing.T) *scenario.Result {
	t.Helper()
	spec, err := scenario.Lookup("churn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestChurnRunPassesAllInvariants is the core robustness claim: a run with
// every fault class active at once (CM restarts, notify drop/delay, a host
// move, link flaps) ends in a consistent state.
func TestChurnRunPassesAllInvariants(t *testing.T) {
	res := churnResult(t)
	if vs := Check(res); len(vs) != 0 {
		t.Fatalf("churn run violated invariants: %v", vs)
	}
	// The run must actually have exercised the fault machinery, or the clean
	// bill of health is vacuous.
	var restarts, dropped int64
	var wiped int
	for _, c := range res.CMs {
		restarts += c.Restarts
		dropped += c.DroppedSends + c.DroppedUpdates
	}
	for _, ev := range res.Events {
		wiped += ev.FlowsWiped
	}
	if restarts == 0 || dropped == 0 || wiped == 0 {
		t.Fatalf("fault machinery idle: restarts=%d dropped=%d wiped=%d", restarts, dropped, wiped)
	}
}

// TestCheckFlagsEachViolation corrupts a healthy result one invariant at a
// time and expects exactly that rule to fire.
func TestCheckFlagsEachViolation(t *testing.T) {
	base := churnResult(t)
	tamper := []struct {
		rule    string
		corrupt func(r *scenario.Result)
	}{
		{RuleGrantConservation, func(r *scenario.Result) { r.CMs[0].GrantsIssued += 5 }},
		{RuleStrandedFlow, func(r *scenario.Result) { r.CMs[0].StrandedFlows = 2 }},
		{RuleNegativePending, func(r *scenario.Result) { r.CMs[0].NegativePending = 1 }},
		{RuleEpochMismatch, func(r *scenario.Result) { r.CMs[0].Epoch += 3 }},
		{RuleNegativeCounter, func(r *scenario.Result) { r.Flows[0].Delivered = -1 }},
		{RuleUnfiredEvent, func(r *scenario.Result) { r.Events[0].Fired = false }},
		{RuleUnfiredEvent, func(r *scenario.Result) {
			r.Events = append(r.Events, dynamics.Record{
				Event:   dynamics.Event{At: time.Hour, Kind: dynamics.CMRestart, Host: "s0"},
				Fired:   true,
				PastEnd: true,
			})
		}},
	}
	for _, tc := range tamper {
		res, err := scenario.Run(mustLookup(t, "churn"))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(res)
		vs := Check(res)
		found := false
		for _, v := range vs {
			if v.Rule == tc.rule {
				found = true
			}
		}
		if !found {
			t.Errorf("corrupting for %s produced %v", tc.rule, vs)
		}
	}
	_ = base
}

func mustLookup(t *testing.T, name string) scenario.Spec {
	t.Helper()
	spec, err := scenario.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPastEndEventStaysUnfiredPastDuration: Sim.RunUntil may run past
// Spec.Duration, but an event scheduled after the horizon, link or host, stays
// what its record says it is, past-end and unfired, while an event inside the
// run fires; and the end state checks clean.
func TestPastEndEventStaysUnfiredPastDuration(t *testing.T) {
	spec := scenario.PointToPoint(scenario.PointToPointParams{Duration: time.Second, WithCM: true})
	spec.Events = []dynamics.Event{
		{At: 500 * time.Millisecond, Kind: dynamics.SetGilbert, Link: 0},
		{At: 2 * time.Second, Kind: dynamics.LinkDown, Link: 0},
		{At: 2 * time.Second, Kind: dynamics.CMRestart, Host: "sender"},
	}
	sim, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(3 * time.Second)
	res := sim.Finish()
	for i, ev := range res.Events {
		if pastEnd := ev.At > spec.Duration; ev.Fired == pastEnd || ev.PastEnd != pastEnd {
			t.Errorf("event %d (%s at %v) after a %v run: fired=%v past_end=%v",
				i, ev.Kind, ev.At, spec.Duration, ev.Fired, ev.PastEnd)
		}
	}
	if sim.CM("sender").Epoch() != 0 {
		t.Fatal("a past-end cm-restart restarted the CM")
	}
	if vs := Check(res); len(vs) != 0 {
		t.Fatalf("run past the horizon violated invariants: %v", vs)
	}
}

// TestChurnSoakCampaign runs the canned soak serially and in parallel: zero
// violations either way, and byte-identical CSV output.
func TestChurnSoakCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("soak campaign in -short mode")
	}
	camp := ChurnSoakCampaign()
	serial, err := camp.Run(scenario.Runner{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckCampaign(serial); len(vs) != 0 {
		t.Fatalf("soak violated invariants: %v", vs)
	}
	parallel, err := camp.Run(scenario.Runner{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatal("serial and parallel soak CSVs differ")
	}
	// Sharded execution of every point must agree too.
	shardedCamp := camp
	shardedCamp.Shards = 4
	sharded, err := shardedCamp.Run(scenario.Runner{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if vs := CheckCampaign(sharded); len(vs) != 0 {
		t.Fatalf("sharded soak violated invariants: %v", vs)
	}
	if serial.CSV() != sharded.CSV() {
		t.Fatal("serial and sharded soak CSVs differ")
	}
}

// TestCheckCampaignLabelsViolations: a corrupted replicate is reported with
// its point and seed coordinates.
func TestCheckCampaignLabelsViolations(t *testing.T) {
	res, err := scenario.Run(mustLookup(t, "churn"))
	if err != nil {
		t.Fatal(err)
	}
	res.CMs[0].Epoch++
	cr := &sweep.CampaignResult{Points: []sweep.PointResult{{
		Index:   3,
		Seeds:   []int64{11, 12},
		Results: []*scenario.Result{nil, res},
	}}}
	vs := CheckCampaign(cr)
	if len(vs) == 0 {
		t.Fatal("corruption not reported")
	}
	want := "point=3 rep=1 seed=12"
	for _, v := range vs {
		if v.Rule == RuleEpochMismatch {
			if !strings.Contains(v.Scenario, want) {
				t.Fatalf("violation label %q missing %q", v.Scenario, want)
			}
			return
		}
	}
	t.Fatalf("epoch-mismatch not among %v", vs)
}

// churnSnapshots runs the churn scenario with mid-run snapshots every second
// and returns the snapshot sequence plus the end state.
func churnSnapshots(t *testing.T) ([]scenario.Snapshot, *scenario.Result) {
	t.Helper()
	spec := mustLookup(t, "churn")
	spec.SnapshotEvery = time.Second
	sim, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunToEnd()
	snaps := sim.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots captured")
	}
	return snaps, sim.Finish()
}

// TestCheckSnapshotsCleanOnChurn extends the core robustness claim into the
// run: the all-faults-active churn scenario holds every always-true
// invariant at each mid-run snapshot, not just at the end.
func TestCheckSnapshotsCleanOnChurn(t *testing.T) {
	snaps, end := churnSnapshots(t)
	vs, firstAt := CheckSnapshots(snaps, end)
	if len(vs) != 0 {
		t.Fatalf("mid-run violations: %v", vs)
	}
	if firstAt != -1 {
		t.Fatalf("firstAt = %d, want -1 for a clean run", firstAt)
	}
}

// TestCheckSnapshotSkipsQuiescenceRules: a mid-run snapshot may legitimately
// hold a pending request (stranded only if the run ends that way) and has
// rightly not fired later events, but the always-true invariants still bite.
func TestCheckSnapshotSkipsQuiescenceRules(t *testing.T) {
	snaps, _ := churnSnapshots(t)
	sn := snaps[1]

	sn.Result.CMs[0].StrandedFlows = 3
	if vs := CheckSnapshot(&sn); len(vs) != 0 {
		t.Fatalf("stranded-flow flagged mid-run: %v", vs)
	}
	sn.Result.CMs[0].StrandedFlows = 0

	sn.Result.CMs[0].GrantsIssued += 7
	vs := CheckSnapshot(&sn)
	if len(vs) != 1 || vs[0].Rule != RuleGrantConservation {
		t.Fatalf("grant corruption yielded %v, want one %s", vs, RuleGrantConservation)
	}
	if !strings.Contains(vs[0].Scenario, "t=") {
		t.Fatalf("snapshot violation %q is missing its capture time", vs[0].Scenario)
	}
	sn.Result.CMs[0].GrantsIssued -= 7

	// An event scheduled after the snapshot that has not fired is fine; one
	// scheduled before it that never fired is a violation.
	sn.Result.Events = append(sn.Result.Events, dynamics.Record{
		Event: dynamics.Event{At: sn.At + time.Second, Kind: dynamics.LinkDown},
	})
	if vs := CheckSnapshot(&sn); len(vs) != 0 {
		t.Fatalf("future unfired event flagged: %v", vs)
	}
	sn.Result.Events[len(sn.Result.Events)-1].Event.At = sn.At - time.Second
	vs = CheckSnapshot(&sn)
	if len(vs) != 1 || vs[0].Rule != RuleUnfiredEvent {
		t.Fatalf("past unfired event yielded %v, want one %s", vs, RuleUnfiredEvent)
	}
}

// TestCheckSnapshotsFirstViolationTime: the reported first-violation time is
// the capture time of the earliest violating snapshot.
func TestCheckSnapshotsFirstViolationTime(t *testing.T) {
	snaps, end := churnSnapshots(t)
	snaps[2].Result.CMs[0].Epoch += 9
	snaps[4].Result.CMs[0].Epoch += 9
	vs, firstAt := CheckSnapshots(snaps, end)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	if want := int64(snaps[2].At); firstAt != want {
		t.Fatalf("firstAt = %d, want %d (t=%v)", firstAt, want, snaps[2].At)
	}
}

// The non-negativity rule materialises only the offending keys, but its
// verdicts are what they were when it flattened and sorted everything: one
// violation per negative field, derived totals included, in sorted key order,
// for an end state and for a snapshot alike.
func TestNegativeCountersReportedInSortedKeyOrder(t *testing.T) {
	res, err := scenario.Run(scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 50_000}},
		Duration:  2 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if vs := Check(res); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
	res.Links[1].QueueDrops = -3
	res.Flows[0].Timeouts = -2
	res.Hosts[0].SentBytes = -7
	want := []string{
		"flows[0].timeouts = -2",
		"hosts[0].SentBytes = -7",
		"links[1].QueueDrops = -3",
		"total.queue_drops = -3",
		"total.timeouts = -2",
	}
	snap := scenario.Snapshot{At: time.Second, Result: res}
	for name, vs := range map[string][]Violation{"Check": Check(res), "CheckSnapshot": CheckSnapshot(&snap)} {
		if len(vs) != len(want) {
			t.Fatalf("%s: %d violations, want %d: %v", name, len(vs), len(want), vs)
		}
		for i, v := range vs {
			if v.Rule != RuleNegativeCounter || v.Detail != want[i] {
				t.Fatalf("%s: violation %d is %q %q, want %q", name, i, v.Rule, v.Detail, want[i])
			}
		}
	}
}
