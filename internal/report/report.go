// Package report assembles the structured run report: one self-describing
// document per scenario run — spec summary, result counters, routing audit,
// faults-checker verdict, per-event-kind cost attribution and probe-series
// summaries — emitted as JSON (cmsim -report) or markdown (-report-md).
//
// Everything in a report except the Perf section is a pure function of the
// Spec and its Result, so the emitted bytes are deterministic per run
// configuration (the byte-identity test compares serial and sharded reports
// after stripping Perf, which measures wall-clock execution and legitimately
// differs per run).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/scenario"
)

// SpecSummary condenses the run's configuration.
type SpecSummary struct {
	Name     string        `json:"name"`
	Seed     int64         `json:"seed"`
	Duration time.Duration `json:"duration"`
	Nodes    int           `json:"nodes"`
	Links    int           `json:"links"`
	Routers  int           `json:"routers"`
	CMHosts  int           `json:"cm_hosts"`
	// Workloads is the number of workload declarations; Flows the number of
	// realised flow instances.
	Workloads int    `json:"workloads"`
	Flows     int    `json:"flows"`
	Events    int    `json:"events"`
	Probes    int    `json:"probes"`
	Routing   string `json:"routing,omitempty"`
	RouteSync string `json:"route_sync,omitempty"`
	// Sharded execution plan: ShardCount is the realised shard count (1 when
	// the build fell back to serial), Lookahead the conservative window.
	ShardsRequested int           `json:"shards_requested,omitempty"`
	ShardCount      int           `json:"shard_count"`
	Lookahead       time.Duration `json:"lookahead,omitempty"`
	SnapshotEvery   time.Duration `json:"snapshot_every,omitempty"`
	TraceDepth      int           `json:"trace_depth,omitempty"`
}

// Verdict is the faults-checker outcome over the end state and any mid-run
// snapshots.
type Verdict struct {
	Clean bool `json:"clean"`
	// SnapshotsChecked counts the mid-run snapshots examined alongside the
	// end state.
	SnapshotsChecked int                `json:"snapshots_checked"`
	Violations       []faults.Violation `json:"violations,omitempty"`
	// FirstViolationAt is the virtual time of the first violating snapshot,
	// -1 when only the end state (or nothing) is in violation.
	FirstViolationAt int64 `json:"first_violation_at_ns"`
}

// ProbeSummary condenses one probe series.
type ProbeSummary struct {
	Name string `json:"name"`
	probe.Summary
}

// Report is the structured run report.
type Report struct {
	Scenario string                  `json:"scenario"`
	Spec     SpecSummary             `json:"spec"`
	Counters scenario.Totals         `json:"counters"`
	Routing  *scenario.RoutingResult `json:"routing,omitempty"`
	Faults   Verdict                 `json:"faults"`
	// Perf is the per-event-kind cost attribution (nil when profiling was
	// not armed) — the one non-deterministic section; see the package
	// comment.
	Perf   *scenario.Perf `json:"perf,omitempty"`
	Probes []ProbeSummary `json:"probes,omitempty"`
}

// Build assembles the report for a finished run. sim must be the Sim that
// produced res (it supplies the spec, the shard plan and any mid-run
// snapshots).
func Build(sim *scenario.Sim, res *scenario.Result) *Report {
	spec := sim.Spec
	r := &Report{
		Scenario: res.Scenario,
		Spec: SpecSummary{
			Name:            spec.Name,
			Seed:            spec.Seed,
			Duration:        spec.Duration,
			Nodes:           len(res.Hosts),
			Links:           len(spec.Links),
			Routers:         len(spec.Routers),
			CMHosts:         len(res.CMs),
			Workloads:       len(spec.Workloads),
			Flows:           len(res.Flows),
			Events:          len(spec.Events),
			Probes:          len(spec.Probes),
			Routing:         spec.Routing,
			RouteSync:       spec.RouteSync,
			ShardsRequested: spec.Shards,
			ShardCount:      sim.ShardCount(),
			SnapshotEvery:   spec.SnapshotEvery,
			TraceDepth:      spec.TraceDepth,
		},
		Counters: res.Totals(),
		Routing:  res.Routing,
		Perf:     res.Perf,
	}
	if sim.Sharded() {
		r.Spec.Lookahead = sim.Lookahead()
	}

	snaps := sim.Snapshots()
	violations, firstAt := faults.CheckSnapshots(snaps, res)
	r.Faults = Verdict{
		Clean:            len(violations) == 0,
		SnapshotsChecked: len(snaps),
		Violations:       violations,
		FirstViolationAt: firstAt,
	}

	for i := range res.Series {
		s := &res.Series[i]
		r.Probes = append(r.Probes, ProbeSummary{Name: s.Name, Summary: s.Summary()})
	}
	return r
}

// StripPerf returns a shallow copy of the report without its wall-clock
// sections, leaving only the deterministic simulation-derived content — what
// the byte-identity tests compare across serial and sharded executions.
func (r *Report) StripPerf() *Report {
	c := *r
	c.Perf = nil
	return &c
}

// WriteJSON emits the report as indented JSON. Field order is fixed by the
// struct definitions, so the bytes are stable.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMarkdown renders the report as a human-readable markdown document with
// the same sections as the JSON form.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run report: %s\n\n", r.Scenario)

	b.WriteString("## Spec\n\n")
	sp := r.Spec
	fmt.Fprintf(&b, "| field | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| duration | %v |\n", sp.Duration)
	fmt.Fprintf(&b, "| seed | %d |\n", sp.Seed)
	fmt.Fprintf(&b, "| nodes / links / routers | %d / %d / %d |\n", sp.Nodes, sp.Links, sp.Routers)
	fmt.Fprintf(&b, "| cm hosts | %d |\n", sp.CMHosts)
	fmt.Fprintf(&b, "| workloads / flows | %d / %d |\n", sp.Workloads, sp.Flows)
	fmt.Fprintf(&b, "| dynamics events | %d |\n", sp.Events)
	fmt.Fprintf(&b, "| probes | %d |\n", sp.Probes)
	if sp.Routing != "" {
		fmt.Fprintf(&b, "| routing | %s |\n", sp.Routing)
	}
	if sp.RouteSync != "" {
		fmt.Fprintf(&b, "| route sync | %s |\n", sp.RouteSync)
	}
	if sp.ShardCount > 1 {
		fmt.Fprintf(&b, "| shards | %d (lookahead %v) |\n", sp.ShardCount, sp.Lookahead)
	} else {
		fmt.Fprintf(&b, "| shards | serial |\n")
	}

	b.WriteString("\n## Counters\n\n")
	c := r.Counters
	fmt.Fprintf(&b, "| counter | value |\n|---|---|\n")
	fmt.Fprintf(&b, "| end time | %v |\n", c.EndTime)
	fmt.Fprintf(&b, "| completed flows | %d / %d |\n", c.CompletedFlows, sp.Flows)
	fmt.Fprintf(&b, "| delivered bytes | %d |\n", c.DeliveredBytes)
	fmt.Fprintf(&b, "| mean throughput | %.2f KB/s |\n", c.MeanThroughputKBps)
	fmt.Fprintf(&b, "| retransmissions / timeouts | %d / %d |\n", c.Retransmissions, c.Timeouts)
	fmt.Fprintf(&b, "| sent packets / bytes | %d / %d |\n", c.SentPackets, c.SentBytes)
	fmt.Fprintf(&b, "| drops (queue / bernoulli / burst / down) | %d / %d / %d / %d |\n",
		c.QueueDrops, c.BernoulliDrops, c.BurstDrops, c.DownDrops)
	fmt.Fprintf(&b, "| forwarded packets | %d |\n", c.ForwardedPackets)
	fmt.Fprintf(&b, "| route drops | %d |\n", c.RouteDrops)
	fmt.Fprintf(&b, "| dynamics events fired | %d |\n", c.DynamicsEvents)
	if sp.CMHosts > 0 {
		fmt.Fprintf(&b, "| CM grants issued / reclaimed | %d / %d |\n", c.GrantsIssued, c.GrantsReclaimed)
		fmt.Fprintf(&b, "| CM notifies | %d |\n", c.Notifies)
		if c.CMRestarts > 0 || c.StaleFlowCalls > 0 {
			fmt.Fprintf(&b, "| CM restarts / stale calls | %d / %d |\n", c.CMRestarts, c.StaleFlowCalls)
		}
	}

	if rt := r.Routing; rt != nil {
		b.WriteString("\n## Routing audit\n\n")
		fmt.Fprintf(&b, "| field | value |\n|---|---|\n")
		fmt.Fprintf(&b, "| mode | %s (%d agents) |\n", rt.Mode, rt.Agents)
		fmt.Fprintf(&b, "| table changes | %d |\n", rt.TableChanges)
		fmt.Fprintf(&b, "| converged | %v (deadline %v) |\n", rt.Converged, rt.ConvergenceDeadline)
		fmt.Fprintf(&b, "| post-convergence route drops | %d |\n", rt.PostConvergenceRouteDrops)
		fmt.Fprintf(&b, "| pending at end | %d |\n", rt.PendingAtEnd)
		fmt.Fprintf(&b, "| audited pairs (loops / unreached / partitioned) | %d (%d / %d / %d) |\n",
			rt.AuditedPairs, rt.LoopPairs, rt.UnreachedPairs, rt.PartitionedPairs)
	}

	b.WriteString("\n## Faults verdict\n\n")
	if r.Faults.Clean {
		fmt.Fprintf(&b, "**clean** — no invariant violations (%d mid-run snapshots + end state checked).\n",
			r.Faults.SnapshotsChecked)
	} else {
		fmt.Fprintf(&b, "**VIOLATIONS: %d** (%d mid-run snapshots + end state checked", len(r.Faults.Violations),
			r.Faults.SnapshotsChecked)
		if r.Faults.FirstViolationAt >= 0 {
			fmt.Fprintf(&b, "; first violating snapshot at %v", time.Duration(r.Faults.FirstViolationAt))
		}
		b.WriteString(")\n\n")
		for _, v := range r.Faults.Violations {
			fmt.Fprintf(&b, "- `%s`: %s\n", v.Rule, v.Detail)
		}
	}

	if r.Perf != nil {
		b.WriteString("\n## Cost attribution\n\n")
		fmt.Fprintf(&b, "%d events, %.3f ms attributed wall-clock.\n\n",
			r.Perf.Events, float64(r.Perf.TotalNs)/1e6)
		fmt.Fprintf(&b, "| kind | events | total ms | share | max µs |\n|---|---|---|---|---|\n")
		for _, k := range r.Perf.Kinds {
			share := 0.0
			if r.Perf.TotalNs > 0 {
				share = float64(k.TotalNs) / float64(r.Perf.TotalNs) * 100
			}
			fmt.Fprintf(&b, "| %s | %d | %.3f | %.1f%% | %.1f |\n",
				k.Kind, k.Count, float64(k.TotalNs)/1e6, share, float64(k.MaxNs)/1e3)
		}
	}

	if len(r.Probes) > 0 {
		b.WriteString("\n## Probe series\n\n")
		fmt.Fprintf(&b, "| probe | samples | mean | min | max | last |\n|---|---|---|---|---|---|\n")
		for _, p := range r.Probes {
			fmt.Fprintf(&b, "| %s | %d | %g | %g | %g | %g |\n", p.Name, p.Samples, p.Mean, p.Min, p.Max, p.Last)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
