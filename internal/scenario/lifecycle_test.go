package scenario

import (
	"encoding/json"
	"testing"
	"time"
)

// A connection's CM flow lives exactly as long as the connection: on every
// canned scenario each CM ends the run with as many flows as it opened and
// did not close, and none of them belongs to a flow that completed. (A CM
// that restarted wiped flows without closing them, so only the second half
// holds there. Completed is the receiver's view — all bytes and the FIN
// arrived; the dialer closes its CM flow one FIN exchange later, so a flow
// completed in the run's last second may still be open.)
func TestCMFlowsEndWithTheirConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registered scenario")
	}
	for _, name := range List() {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unfinished := map[string]int{}
		for _, f := range res.Flows {
			if !f.Completed || f.Finished > res.EndTime-time.Second {
				unfinished[f.From]++
			}
		}
		var opens, closes int64
		for _, c := range res.CMs {
			opens, closes = opens+c.Opens, closes+c.Closes
			if c.Epoch == 0 && c.Opens-c.Closes != int64(c.Flows) {
				t.Errorf("%s: cm[%s] has %d flows after %d opens and %d closes", name, c.Host, c.Flows, c.Opens, c.Closes)
			}
			if c.Flows > unfinished[c.Host] {
				t.Errorf("%s: cm[%s] still has %d flows, but only %d of the host's flows are unfinished or just finished",
					name, c.Host, c.Flows, unfinished[c.Host])
			}
		}
		t.Logf("%s: %d opens, %d closes", name, opens, closes)
	}
}

// Connections close the same way on one scheduler and across shards, also
// when every link duplicates every packet, so that each closing segment
// arrives twice and the second copy meets a time-wait record: the results are
// equal byte for byte, every flow completes and every CM flow is closed.
func TestConnectionsCloseIdenticallyAcrossShardsUnderDuplication(t *testing.T) {
	base := Dumbbell(DumbbellParams{
		Senders: 2, Receivers: 2, FlowsPerPair: 2, CrossProduct: true,
		Bytes: 128 << 10, Duration: 10 * time.Second,
	})
	for i := range base.Links {
		base.Links[i].DuplicateRate = 1
	}
	sharded := base
	sharded.Shards = 2
	if n := MustBuild(sharded).ShardCount(); n != 2 {
		t.Fatalf("want 2 shards, got %d", n)
	}
	var encoded [2]string
	for i, spec := range []Spec{base, sharded} {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Flows {
			if !f.Completed {
				t.Errorf("shards=%d: flow %d.%d incomplete", spec.Shards, f.Workload, f.Flow)
			}
		}
		for _, c := range res.CMs {
			if c.Flows != 0 || c.Opens != c.Closes || c.Opens == 0 || c.StaleFlowCalls != 0 {
				t.Errorf("shards=%d: cm[%s] ends with %d flows after %d opens, %d closes, %d stale calls",
					spec.Shards, c.Host, c.Flows, c.Opens, c.Closes, c.StaleFlowCalls)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		encoded[i] = string(b)
	}
	if encoded[0] != encoded[1] {
		t.Fatal("serial and 2-shard results differ")
	}
}
