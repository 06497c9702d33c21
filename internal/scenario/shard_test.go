package scenario

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
)

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
