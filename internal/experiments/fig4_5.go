package experiments

import (
	"fmt"
	"time"

	"repro/internal/apicost"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Fig4Config parameterises the long-transfer throughput comparison of
// Figure 4: ttcp-style transfers of N buffers of 8 KB over the 100 Mbps
// testbed LAN, TCP/Linux vs TCP/CM.
type Fig4Config struct {
	// BufferCounts is the x axis (number of 8 KB buffers transmitted). The
	// paper sweeps 1e3 to 1e6; the default stops at 1e5 to keep the bench
	// quick — pass 1e6 explicitly for the full sweep.
	BufferCounts []int
	// BufferSize is the ttcp buffer size (8 KB in the paper).
	BufferSize int
	Deadline   time.Duration
}

func (c *Fig4Config) fillDefaults() {
	if len(c.BufferCounts) == 0 {
		c.BufferCounts = []int{1_000, 3_000, 10_000, 30_000, 100_000}
	}
	if c.BufferSize <= 0 {
		c.BufferSize = 8192
	}
	if c.Deadline <= 0 {
		c.Deadline = 4 * time.Hour
	}
}

// Fig4Point is one x-position of Figure 4 (and the input to Figure 5).
type Fig4Point struct {
	Buffers     int
	CMKBps      float64
	LinuxKBps   float64
	DiffPercent float64
}

// Fig4Result is the reproduction of Figure 4.
type Fig4Result struct {
	Config Fig4Config
	Points []Fig4Point
}

// Fig4Campaign is the declarative form of the Figure 4 sweep: the 100 Mbps
// testbed LAN as the base spec, a seed-paired string axis over the
// congestion controller and a list axis over the transfer size. The paper's
// ttcp runs used the era's default socket buffers (64 KB); the flow is
// receiver-window-limited on the LAN, which is what lets both stacks
// saturate the link with no queue-overflow losses.
func Fig4Campaign(cfg Fig4Config) sweep.Campaign {
	cfg.fillDefaults()
	lan := testbedLAN()
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    lan.Bandwidth,
			Delay:        lan.OneWayDelay,
			QueuePackets: lan.QueuePackets,
			Seed:         lan.Seed,
		},
		Workloads: []scenario.Workload{{
			Kind: scenario.KindBulk, From: "sender", To: "receiver",
			RecvWindow: 64 * 1024,
		}},
		Duration: cfg.Deadline,
		Seed:     lan.Seed,
	})
	base.Name = "fig4"
	sizes := make([]float64, len(cfg.BufferCounts))
	for i, buffers := range cfg.BufferCounts {
		sizes[i] = float64(buffers * cfg.BufferSize)
	}
	return sweep.Campaign{
		Name: "fig4",
		Base: &base,
		Axes: []sweep.Axis{
			{Param: "workload[0].cc", Strings: []string{scenario.CCCM, scenario.CCNative}},
			{Param: "workload[0].bytes", Values: sizes},
		},
		Metrics: []string{"flows[0].throughput_kbps", "flows[0].completed"},
	}
}

// RunFig4 executes the Figure 4 sweep through the campaign engine.
func RunFig4(cfg Fig4Config) Fig4Result {
	cfg.fillDefaults()
	res := Fig4Result{Config: cfg}
	cres, err := Fig4Campaign(cfg).Run(scenario.Runner{})
	if err != nil {
		return res
	}
	n := len(cfg.BufferCounts)
	for i, buffers := range cfg.BufferCounts {
		cmKBps := fig4Throughput(&cres.Points[i])
		linuxKBps := fig4Throughput(&cres.Points[n+i])
		diff := 0.0
		if linuxKBps > 0 {
			diff = 100 * (linuxKBps - cmKBps) / linuxKBps
		}
		res.Points = append(res.Points, Fig4Point{
			Buffers: buffers, CMKBps: cmKBps, LinuxKBps: linuxKBps, DiffPercent: diff,
		})
	}
	return res
}

// fig4Throughput reads the completed transfer's throughput from a point's
// raw result; a transfer that missed the deadline reports 0, as the original
// runner did.
func fig4Throughput(p *sweep.PointResult) float64 {
	if len(p.Results) == 0 {
		return 0
	}
	f := p.Results[0].Flows[0]
	if !f.Completed {
		return 0
	}
	return f.ThroughputKBps
}

// Table renders Figure 4.
func (r Fig4Result) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Buffers),
			fmt.Sprintf("%.0f", p.CMKBps),
			fmt.Sprintf("%.0f", p.LinuxKBps),
			fmt.Sprintf("%.2f%%", p.DiffPercent),
		})
	}
	return "Figure 4: 100 Mbps TCP throughput vs transfer length (8 KB buffers)\n" +
		sweep.FormatTable([]string{"buffers", "TCP/CM KB/s", "TCP/Linux KB/s", "Linux advantage"}, rows)
}

// Fig5Config parameterises the CPU-utilisation comparison of Figure 5. The
// network side reuses the Figure 4 measurements; the end-system cost comes
// from the apicost model plus a one-time per-connection CM setup cost that is
// amortised over the run (the paper's microbenchmark found connection setup
// indistinguishable, so the constant is small).
type Fig5Config struct {
	Fig4 Fig4Config
	// Costs is the per-operation cost model (DefaultCosts if zero).
	Costs apicost.CostModel
	// CMSetupCost is the one-time extra cost of creating the CM flow and
	// macroflow state for a connection.
	CMSetupCost time.Duration
}

// Fig5Point is one x-position of Figure 5.
type Fig5Point struct {
	Buffers      int
	CMUtil       float64
	LinuxUtil    float64
	DiffPercentU float64 // percentage points of CPU
}

// Fig5Result is the reproduction of Figure 5.
type Fig5Result struct {
	Points []Fig5Point
}

// RunFig5 executes the Figure 5 comparison.
func RunFig5(cfg Fig5Config) Fig5Result {
	cfg.Fig4.fillDefaults()
	if cfg.Costs == (apicost.CostModel{}) {
		cfg.Costs = apicost.DefaultCosts()
	}
	if cfg.CMSetupCost <= 0 {
		cfg.CMSetupCost = 50 * time.Microsecond
	}
	fig4 := RunFig4(cfg.Fig4)
	res := Fig5Result{}
	payload := netsim.DefaultMSS
	for _, p := range fig4.Points {
		bytes := float64(p.Buffers * cfg.Fig4.BufferSize)
		linuxRate := p.LinuxKBps * 1024
		cmRate := p.CMKBps * 1024
		linuxUtil := apicost.CPUUtilization(apicost.TCPLinux, payload, linuxRate, cfg.Costs)
		cmUtil := apicost.CPUUtilization(apicost.TCPCM, payload, cmRate, cfg.Costs)
		if cmRate > 0 {
			duration := bytes / cmRate
			cmUtil += cfg.CMSetupCost.Seconds() / duration
		}
		if cmUtil > 1 {
			cmUtil = 1
		}
		res.Points = append(res.Points, Fig5Point{
			Buffers:      p.Buffers,
			CMUtil:       cmUtil,
			LinuxUtil:    linuxUtil,
			DiffPercentU: 100 * (cmUtil - linuxUtil),
		})
	}
	return res
}

// Table renders Figure 5.
func (r Fig5Result) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Buffers),
			fmt.Sprintf("%.1f%%", 100*p.CMUtil),
			fmt.Sprintf("%.1f%%", 100*p.LinuxUtil),
			fmt.Sprintf("%.2f pp", p.DiffPercentU),
		})
	}
	return "Figure 5: CPU utilisation, TCP/CM vs TCP/Linux (100 Mbps saturation)\n" +
		sweep.FormatTable([]string{"buffers", "TCP/CM CPU", "TCP/Linux CPU", "CM overhead"}, rows)
}
