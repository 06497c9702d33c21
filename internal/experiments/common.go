// Package experiments contains one runner per table and figure of the
// paper's evaluation (§4), plus the microbenchmarks and ablations listed in
// DESIGN.md. Each runner builds its own deterministic topology, executes the
// workload under the simulator, and returns a result structure whose Table
// method prints the same rows/series the paper reports.
package experiments

import (
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// Path describes the network path used by an experiment.
type Path struct {
	Bandwidth    netsim.Bandwidth
	OneWayDelay  time.Duration
	LossRate     float64
	QueuePackets int
	Seed         int64
}

// testbedLAN reproduces the paper's 100 Mbps switched Ethernet testbed.
func testbedLAN() Path {
	return Path{Bandwidth: 100 * netsim.Mbps, OneWayDelay: 250 * time.Microsecond, QueuePackets: 300, Seed: 1}
}

// dummynetWAN reproduces the Dummynet-shaped 10 Mbps / 60 ms RTT channel of
// Figure 3.
func dummynetWAN(lossPct float64, seed int64) Path {
	return Path{
		Bandwidth:    10 * netsim.Mbps,
		OneWayDelay:  30 * time.Millisecond,
		LossRate:     lossPct / 100,
		QueuePackets: 120,
		Seed:         seed,
	}
}

// vbnsPath approximates the MIT-Utah vBNS path of Figures 7-10: a few Mbit/s
// of available bandwidth and roughly 70 ms of round-trip time.
func vbnsPath(seed int64) Path {
	return Path{Bandwidth: 20 * netsim.Mbps, OneWayDelay: 35 * time.Millisecond, QueuePackets: 150, Seed: seed}
}

// spec returns the declarative point-to-point scenario for the path: the
// sender<->receiver topology every experiment in the paper's evaluation
// (§4) runs on.
func (p Path) spec(withCM bool, cmOpts ...cm.Option) scenario.Spec {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    p.Bandwidth,
			Delay:        p.OneWayDelay,
			LossRate:     p.LossRate,
			QueuePackets: p.QueuePackets,
			Seed:         p.Seed,
		},
		WithCM: withCM,
		Seed:   p.Seed,
	})
	spec.CMOpts = cmOpts
	return spec
}

// testbed is an experiment's view of a built scenario: the two-host topology
// with an optional Congestion Manager on the sender. Every runner constructs
// its topology through the scenario engine and attaches its workload (bulk
// transfers, file servers, layered streams) programmatically on the hosts'
// clock, and advances the run with sim.RunUntil.
type testbed struct {
	sim    *scenario.Sim
	clock  *simtime.Scheduler
	cm     *cm.CM
	sender *node.Host
	rcvr   *node.Host
}

// newTestbed builds sender<->receiver joined by the path through the
// scenario engine. withCM installs a Congestion Manager (and the IP notify
// hook) on the sender.
func newTestbed(p Path, withCM bool, cmOpts ...cm.Option) *testbed {
	sim := scenario.MustBuild(p.spec(withCM, cmOpts...))
	w := &testbed{
		sim:    sim,
		clock:  sim.Host("sender").Clock(),
		cm:     sim.CM("sender"),
		sender: sim.Host("sender"),
		rcvr:   sim.Host("receiver"),
	}
	return w
}

// senderTCPConfig returns the tcp.Config for the data sender under the given
// congestion-control variant.
func (w *testbed) senderTCPConfig(cc tcp.CongestionControl) tcp.Config {
	cfg := tcp.Config{CongestionControl: cc, DelayedAck: true, RecvWindow: 1 << 20}
	if cc == tcp.CCCM {
		cfg.CM = w.cm
	}
	return cfg
}
