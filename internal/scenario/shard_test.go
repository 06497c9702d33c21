package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/probe"
)

// TestShardedRunsAreByteIdentical is the sharded-execution acceptance check:
// a K-shard run must produce exactly the serial run's Result — same structs,
// same JSON bytes — for K in {2,4,8}, on scenarios covering symmetric
// dumbbells (same-instant tie-breaks), multi-hop chains, bursty loss with
// layered UDP workloads, an active dynamics timeline with an outage and live
// route recomputation, and the 64-node cluster grid. Every run executes with
// the per-event-kind profiler armed, proving wall-clock attribution never
// perturbs simulation state; the Perf block (execution telemetry, by design
// different per run) is asserted populated and then stripped before the
// comparison.
func TestShardedRunsAreByteIdentical(t *testing.T) {
	runProfiled := func(spec Spec) (*Result, error) {
		sim, err := Build(spec)
		if err != nil {
			return nil, err
		}
		sim.EnableProfiling()
		if err := sim.Start(); err != nil {
			return nil, err
		}
		sim.RunToEnd()
		res := sim.Finish()
		if res.Perf == nil || res.Perf.Events == 0 || len(res.Perf.Kinds) == 0 {
			t.Fatalf("%s: profiled run produced no Perf attribution: %+v", spec.Name, res.Perf)
		}
		res.Perf = nil
		return res, nil
	}
	// fattree is the residual-tie torture case: its cross-pod streams dial in
	// nanosecond lockstep and collide at the cores at shared instants, which
	// only the link-identity sort key (Link.SortKey, see drain()) orders
	// consistently between serial and sharded runs.
	scenarios := []string{"grid", "flaky-dumbbell", "churn", "fattree", "routeflap"}
	if !testing.Short() {
		scenarios = append(scenarios, "wireless", "parkinglot")
	}
	for _, name := range scenarios {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		// Long enough to cross every scheduled dynamics event, short enough
		// to keep the whole matrix quick.
		spec.Duration = 3 * time.Second
		if name == "flaky-dumbbell" {
			spec.Duration = 12 * time.Second // past the outage and recovery
		}
		if name == "churn" {
			// Past the host move (2s), its re-attach and a few CM restarts,
			// with notify faults injecting throughout.
			spec.Duration = 6 * time.Second
		}
		if name == "routeflap" {
			// Past the flap (1s down, 3s up) with the control plane active and
			// control-plane faults injecting — the distance-vector messages
			// must serialise identically across shard counts.
			spec.Duration = 4 * time.Second
		}
		if name == "grid" {
			// Drop the cross-cluster start stagger: every transfer dials at
			// t=0 in lockstep, so symmetric same-instant deliveries from
			// different source shards hit shared routers — the hardest
			// tie-breaking case for the injection order (see drain()).
			for i := range spec.Workloads {
				spec.Workloads[i].Start = 0
			}
		}
		// Observability must be observation-only: identical results with
		// probes sampling mid-run and the flight recorder armed. The link
		// probes split across the field-ownership boundary (queue depth on
		// the sending shard, delivered bytes on the receiving one), and the
		// host probe rides the first workload's source host.
		spec.Probes = []probe.Spec{
			{Target: "link[0].queue_depth"},
			{Target: "link[0].delivered_bytes"},
			{Target: "host[" + spec.Workloads[0].From + "].sent_bytes"},
		}
		for _, w := range spec.Workloads {
			if w.CC == CCCM {
				spec.Probes = append(spec.Probes, probe.Spec{Target: "cm[" + w.From + "].cwnd"})
				break
			}
		}
		spec.TraceDepth = 256
		serial, err := runProfiled(spec)
		if err != nil {
			t.Fatal(err)
		}
		sj, err := json.Marshal(serial)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 4, 8} {
			sp := spec
			sp.Shards = k
			sharded, err := runProfiled(sp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, sharded) {
				t.Errorf("%s: serial and %d-shard result structs differ", name, k)
			}
			kj, err := json.Marshal(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if string(sj) != string(kj) {
				t.Errorf("%s: serial and %d-shard JSON encodings differ", name, k)
			}
		}
	}
}

// TestShardedBuildPartition pins the partitioner's observable properties on
// the canned topologies: whole clusters stay on one shard, the lookahead is
// the backbone delay, and the dumbbell splits at its bottleneck.
func TestShardedBuildPartition(t *testing.T) {
	spec, err := Lookup("grid")
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 4
	sim, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Sharded() || sim.ShardCount() != 4 {
		t.Fatalf("grid with Shards=4: sharded=%v count=%d", sim.Sharded(), sim.ShardCount())
	}
	if got := sim.Lookahead(); got != 10*time.Millisecond {
		t.Fatalf("grid lookahead = %v, want the 10ms backbone delay", got)
	}
	// Every leaf host must share its router's shard: access links are the
	// cheapest edges, so the partition never cuts one.
	for c := 0; c < 16; c++ {
		r := sim.ShardOf(sname4(c))
		for i := 0; i < 3; i++ {
			if got := sim.ShardOf(hname4(c, i)); got != r {
				t.Fatalf("cluster %d host %d on shard %d, router on %d", c, i, got, r)
			}
		}
	}

	db, err := Lookup("dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	db.Shards = 2
	sim, err = Build(db)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Lookahead(); got != 20*time.Millisecond {
		t.Fatalf("dumbbell lookahead = %v, want the 20ms bottleneck delay", got)
	}
	if sim.ShardOf("left") == sim.ShardOf("right") {
		t.Fatal("dumbbell: both routers on one shard; the cut should be the bottleneck")
	}
	for _, h := range []string{"s0", "s1"} {
		if sim.ShardOf(h) != sim.ShardOf("left") {
			t.Fatalf("sender %s not on the left router's shard", h)
		}
	}
}

func sname4(c int) string    { return "r" + itoa(c) }
func hname4(c, i int) string { return "c" + itoa(c) + "h" + itoa(i) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestShardedFallsBackToSerial covers the degradations: Shards <= 1, a
// single-host-pair topology with zero propagation delay (no lookahead), and
// a set-delay event that collapses the only cross-shard delay to zero
// mid-run. All three must build serial.
func TestShardedFallsBackToSerial(t *testing.T) {
	zero := PointToPoint(PointToPointParams{
		Link: netsim.LinkConfig{Bandwidth: 10 * netsim.Mbps},
		Workloads: []Workload{
			{Kind: KindBulk, From: "sender", To: "receiver", Bytes: 1 << 16},
		},
		Duration: 2 * time.Second,
	})
	zero.Shards = 4
	sim, err := Build(zero)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Sharded() {
		t.Fatal("zero-delay topology must fall back to serial execution")
	}
	if n := sim.ShardCount(); n != 1 {
		t.Fatalf("serial fallback runs on %d shards, want 1", n)
	}

	one := DumbbellGrid(GridParams{})
	one.Shards = 1
	if sim = MustBuild(one); sim.Sharded() {
		t.Fatal("Shards=1 must run serially")
	}

	// A zero-delay cut admits no lookahead. On a two-node topology the one
	// link is the only possible cut, so sharding must be abandoned.
	squeeze, err := Lookup("wireless")
	if err != nil {
		t.Fatal(err)
	}
	squeeze.Shards = 2
	squeeze.Links[0].Delay = 0
	if sim = MustBuild(squeeze); sim.Sharded() {
		t.Fatal("a zero-delay link as the only cut must force serial execution")
	}

	// On the grid a low-delay link is routed around: the partitioner
	// contracts the cheap backbone link into one shard (cheapest edges merge
	// first), so the surviving cut keeps the full 10ms lookahead. Links are
	// built cluster hosts first (16 clusters * 3 hosts = 48), so index 48 is
	// the first backbone link.
	routed, err := Lookup("grid")
	if err != nil {
		t.Fatal(err)
	}
	routed.Shards = 4
	routed.Links[48].Delay = 2 * time.Millisecond
	if sim = MustBuild(routed); !sim.Sharded() || sim.Lookahead() != 10*time.Millisecond {
		t.Fatalf("sharded=%v lookahead=%v, want the cut routed around the squeezed link (10ms)",
			sim.Sharded(), sim.Lookahead())
	}
	a, b := routed.Links[48].A, routed.Links[48].B
	if sim.ShardOf(a) != sim.ShardOf(b) {
		t.Fatalf("low-delay link %s-%s still crosses shards", a, b)
	}
}

// TestShardedRepeatedRunsIdentical pins plain determinism of the sharded
// path itself: two sharded runs of one spec are identical.
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	spec := DumbbellGrid(GridParams{Duration: 2 * time.Second})
	spec.Shards = 4
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sharded runs of the same spec differ")
	}
}

// TestShardedRunUntilInSteps drives a sharded run with RunUntil in steps
// that fall inside lookahead windows: deliveries handed off in the last
// window of one call must still be injected before they are due in the
// next, so the Result equals a serial RunToEnd.
func TestShardedRunUntilInSteps(t *testing.T) {
	spec := DumbbellGrid(GridParams{Duration: time.Second})
	want, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Shards = 2
	sim := MustBuild(spec)
	if !sim.Sharded() {
		t.Fatal("grid did not shard")
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	for at := 7 * time.Millisecond; at < spec.Duration; at += 7 * time.Millisecond {
		sim.RunUntil(at)
	}
	sim.RunToEnd()
	got := sim.Finish()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("stepped 2-shard run differs from the serial run")
	}
}
