package experiments

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// FairnessConfig parameterises the ensemble-aggressiveness experiment behind
// the paper's correctness claim in §4: "by integrating flow information
// between both kernel protocols and user applications, we ensure that an
// ensemble of concurrent flows is not an overly aggressive user of the
// network." An ensemble of N web-like connections from one host competes
// with a single independent TCP for a shared bottleneck; with the CM the
// ensemble shares one macroflow and should claim roughly half the link, while
// N independent TCP connections claim roughly N/(N+1) of it.
type FairnessConfig struct {
	// EnsembleFlows is the number of concurrent connections in the ensemble.
	EnsembleFlows int
	// Duration is how long the competition runs.
	Duration time.Duration
	// Path describes the shared bottleneck.
	Path Path
}

func (c *FairnessConfig) fillDefaults() {
	if c.EnsembleFlows <= 0 {
		c.EnsembleFlows = 4
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Path.Bandwidth == 0 {
		c.Path = Path{Bandwidth: 10 * netsim.Mbps, OneWayDelay: 30 * time.Millisecond, QueuePackets: 120, Seed: 71}
	}
}

// FairnessResult reports the bandwidth shares of the ensemble under both
// configurations.
type FairnessResult struct {
	Config FairnessConfig
	// CMEnsembleShare is the ensemble's fraction of the total goodput when
	// its connections share one CM macroflow.
	CMEnsembleShare float64
	// IndependentEnsembleShare is the same fraction when the ensemble's
	// connections each run their own native congestion control.
	IndependentEnsembleShare float64
	// FairShare is the share one aggregate competing with one other flow
	// would get (0.5).
	FairShare float64
}

// FairnessCampaign is the declarative form of the competition: the shared
// bottleneck as the base spec carrying the ensemble (workload 0) and one
// independent native competitor (workload 1), with a single string axis
// flipping the ensemble's congestion controller between cm and native. The
// string axis is seed-paired, so both configurations see the identical path.
func FairnessCampaign(cfg FairnessConfig) sweep.Campaign {
	cfg.fillDefaults()
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    cfg.Path.Bandwidth,
			Delay:        cfg.Path.OneWayDelay,
			LossRate:     cfg.Path.LossRate,
			QueuePackets: cfg.Path.QueuePackets,
			Seed:         cfg.Path.Seed,
		},
		Workloads: []scenario.Workload{
			{Kind: scenario.KindStream, From: "sender", To: "receiver", Flows: cfg.EnsembleFlows},
			{Kind: scenario.KindStream, From: "sender", To: "receiver", CC: scenario.CCNative},
		},
		Duration: cfg.Duration,
		Seed:     cfg.Path.Seed,
	})
	base.Name = "fairness"
	return sweep.Campaign{
		Name: "fairness",
		Base: &base,
		Axes: []sweep.Axis{
			{Param: "workload[0].cc", Strings: []string{scenario.CCCM, scenario.CCNative}},
		},
		Metrics: []string{"flows[*].delivered"},
	}
}

// RunFairness runs the competition in both configurations through the
// campaign engine.
func RunFairness(cfg FairnessConfig) FairnessResult {
	cfg.fillDefaults()
	res := FairnessResult{Config: cfg, FairShare: 0.5}
	cres, err := FairnessCampaign(cfg).Run(scenario.Runner{})
	if err != nil {
		return res
	}
	res.CMEnsembleShare = ensembleShare(&cres.Points[0])
	res.IndependentEnsembleShare = ensembleShare(&cres.Points[1])
	return res
}

// ensembleShare computes the ensemble workload's fraction of all delivered
// bytes from the point's raw result.
func ensembleShare(p *sweep.PointResult) float64 {
	if len(p.Results) == 0 {
		return 0
	}
	var ensemble, total int64
	for _, f := range p.Results[0].Flows {
		total += f.Delivered
		if f.Workload == 0 {
			ensemble += f.Delivered
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ensemble) / float64(total)
}

// Table renders the fairness comparison.
func (r FairnessResult) Table() string {
	n := r.Config.EnsembleFlows
	rows := [][]string{
		{fmt.Sprintf("%d TCP/CM connections (one macroflow)", n), fmt.Sprintf("%.2f", r.CMEnsembleShare)},
		{fmt.Sprintf("%d independent TCP connections", n), fmt.Sprintf("%.2f", r.IndependentEnsembleShare)},
		{"fair share for one aggregate", fmt.Sprintf("%.2f", r.FairShare)},
		{fmt.Sprintf("aggressive share (%d/%d)", n, n+1), fmt.Sprintf("%.2f", float64(n)/float64(n+1))},
	}
	return "Ensemble aggressiveness: share of a shared bottleneck taken from one competing TCP\n" +
		sweep.FormatTable([]string{"ensemble configuration", "bandwidth share"}, rows)
}
