package experiments

import (
	"fmt"
	"time"

	"repro/internal/cm"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/sweep"
	"repro/internal/tcp"
)

// ConnSetupResult reproduces the §4.1 microbenchmark: connection
// establishment time for TCP/CM vs TCP/Linux (the paper found no appreciable
// difference).
type ConnSetupResult struct {
	CM    time.Duration
	Linux time.Duration
}

// RunConnSetup measures the three-way-handshake completion time on the
// testbed LAN for both configurations.
func RunConnSetup() ConnSetupResult {
	measure := func(cc tcp.CongestionControl) time.Duration {
		w := newTestbed(testbedLAN(), cc == tcp.CCCM)
		if _, err := tcp.Listen(w.rcvr, 80, tcp.Config{}, nil, nil); err != nil {
			return 0
		}
		start := w.clock.Now()
		var established time.Duration
		ep, err := tcp.Dial(w.sender, netsim.Addr{Host: "receiver", Port: 80}, w.senderTCPConfig(cc))
		if err != nil {
			return 0
		}
		ep.OnEstablished(func(*tcp.Endpoint, any) { established = w.clock.Now() })
		w.sim.RunUntil(start + time.Second)
		return established - start
	}
	return ConnSetupResult{CM: measure(tcp.CCCM), Linux: measure(tcp.CCNative)}
}

// Table renders the connection-setup comparison.
func (r ConnSetupResult) Table() string {
	rows := [][]string{
		{"TCP/CM", fmt.Sprintf("%.3f ms", float64(r.CM)/float64(time.Millisecond))},
		{"TCP/Linux", fmt.Sprintf("%.3f ms", float64(r.Linux)/float64(time.Millisecond))},
	}
	return "Connection establishment time (§4.1 microbenchmark)\n" +
		sweep.FormatTable([]string{"stack", "setup time"}, rows)
}

// AblationInitialWindowResult compares the CM's initial window of 1 MTU with
// a Linux-like initial window of 2 MTUs on the Figure 7 workload, isolating
// the first-transfer penalty the paper attributes to that difference.
type AblationInitialWindowResult struct {
	FirstRequestIW1ms float64
	FirstRequestIW2ms float64
}

// RunAblationInitialWindow measures the first-retrieval latency with both
// initial windows.
func RunAblationInitialWindow() AblationInitialWindowResult {
	run := func(iw int) float64 {
		cfg := Fig7Config{Requests: 1}
		cfg.fillDefaults()
		cfg.Requests = 1
		w := newTestbed(vbnsPath(43), true, cm.WithInitialWindow(iw))
		times := fig7RunInTestbed(w, tcp.CCCM, cfg)
		if len(times) == 0 {
			return 0
		}
		return times[0]
	}
	return AblationInitialWindowResult{FirstRequestIW1ms: run(1), FirstRequestIW2ms: run(2)}
}

// Table renders the initial-window ablation.
func (r AblationInitialWindowResult) Table() string {
	rows := [][]string{
		{"CM, initial window 1 MTU", fmt.Sprintf("%.0f ms", r.FirstRequestIW1ms)},
		{"CM, initial window 2 MTU", fmt.Sprintf("%.0f ms", r.FirstRequestIW2ms)},
	}
	return "Ablation A1: first 128 KB retrieval vs initial congestion window\n" +
		sweep.FormatTable([]string{"configuration", "first request"}, rows)
}

// AblationBulkCallsResult compares the number of kernel boundary crossings a
// server with many flows performs with per-flow cm_request calls versus the
// batched cm_bulk_request of §5 (Optimizations).
type AblationBulkCallsResult struct {
	Flows          int
	PerFlowIoctls  int64
	BulkIoctls     int64
	CrossingsSaved int64
}

// RunAblationBulkCalls counts control-socket ioctls for both strategies.
func RunAblationBulkCalls(flows int) AblationBulkCallsResult {
	if flows <= 0 {
		flows = 32
	}
	count := func(bulk bool) int64 {
		s := simtime.NewScheduler()
		c := cm.New(s, s)
		lib := libcm.New(c, s, libcm.ModeManual)
		ids := make([]cm.FlowID, 0, flows)
		for i := 0; i < flows; i++ {
			f := lib.Open(netsim.ProtoUDP, netsim.Addr{Host: "sender", Port: 10000 + i},
				netsim.Addr{Host: fmt.Sprintf("dst%d", i), Port: 80})
			lib.RegisterSend(f, func(cm.FlowID) {})
			ids = append(ids, f)
		}
		if bulk {
			lib.BulkRequest(ids)
		} else {
			for _, f := range ids {
				lib.Request(f)
			}
		}
		s.RunFor(time.Second)
		lib.Dispatch()
		return lib.Stats().Ioctls
	}
	perFlow := count(false)
	bulkCalls := count(true)
	return AblationBulkCallsResult{
		Flows:          flows,
		PerFlowIoctls:  perFlow,
		BulkIoctls:     bulkCalls,
		CrossingsSaved: perFlow - bulkCalls,
	}
}

// Table renders the bulk-call ablation.
func (r AblationBulkCallsResult) Table() string {
	rows := [][]string{
		{"per-flow cm_request", fmt.Sprintf("%d", r.PerFlowIoctls)},
		{"cm_bulk_request", fmt.Sprintf("%d", r.BulkIoctls)},
		{"crossings saved", fmt.Sprintf("%d", r.CrossingsSaved)},
	}
	return fmt.Sprintf("Ablation A2: control-socket ioctls to request sends for %d flows\n", r.Flows) +
		sweep.FormatTable([]string{"strategy", "ioctls"}, rows)
}

// AblationSchedulerResult compares the paper's unweighted round-robin (every
// flow at the default weight 1) with weights 3:1 on the same rotation: the
// ratio of grants between two permanently backlogged flows.
type AblationSchedulerResult struct {
	EqualShare    float64 // grants to flow A / grants to flow B, equal weights
	WeightedShare float64 // the same with A at weight 3, B at weight 1
}

// RunAblationScheduler measures the grant ratio with and without weights.
func RunAblationScheduler() AblationSchedulerResult {
	run := func(weighted bool) float64 {
		s := simtime.NewScheduler()
		c := cm.New(s, s, cm.WithMTU(1000), cm.WithInitialWindow(4), cm.WithMaxWindow(20_000))
		dstA := netsim.Addr{Host: "utah", Port: 80}
		dstB := netsim.Addr{Host: "utah", Port: 81}
		a := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 1}, dstA)
		b := c.Open(netsim.ProtoUDP, netsim.Addr{Host: "s", Port: 2}, dstB)
		if weighted {
			c.SetWeight(a, 3)
		}
		counts := map[cm.FlowID]int{}
		onSend := func(id cm.FlowID) {
			counts[id]++
			c.Notify(id, 1000)
			s.After(10*time.Millisecond, func() {
				c.Update(id, 1000, 1000, cm.NoLoss, 10*time.Millisecond)
			})
		}
		c.RegisterSend(a, onSend)
		c.RegisterSend(b, onSend)
		for i := 0; i < 5000; i++ {
			c.Request(a)
			c.Request(b)
		}
		s.RunFor(2 * time.Second)
		if counts[b] == 0 {
			return 0
		}
		return float64(counts[a]) / float64(counts[b])
	}
	return AblationSchedulerResult{EqualShare: run(false), WeightedShare: run(true)}
}

// Table renders the scheduler ablation.
func (r AblationSchedulerResult) Table() string {
	rows := [][]string{
		{"equal weights (paper default)", fmt.Sprintf("%.2f", r.EqualShare)},
		{"weights 3:1", fmt.Sprintf("%.2f", r.WeightedShare)},
	}
	return "Ablation A3: grant ratio between two backlogged flows on one round-robin\n" +
		sweep.FormatTable([]string{"weights", "grant ratio A:B"}, rows)
}

// fig7RunInTestbed is RunFig7's inner loop exposed for the ablations that need
// a custom CM configuration.
func fig7RunInTestbed(w *testbed, cc tcp.CongestionControl, cfg Fig7Config) []float64 {
	serverCfg := w.senderTCPConfig(cc)
	if _, err := newFileServer(w, serverCfg, cfg.FileSize); err != nil {
		return nil
	}
	return runFetches(w, cfg)
}
