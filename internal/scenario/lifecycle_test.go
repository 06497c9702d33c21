package scenario

import (
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
