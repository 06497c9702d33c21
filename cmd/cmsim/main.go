// Command cmsim runs simulation scenarios: a named scenario from the
// registry (from the paper's two-host testbed to multi-hop topologies with
// routed forwarding), or a parameter-sweep campaign over one.
//
// Scenario mode:
//
//	cmsim -list                                  # print the catalogue
//	cmsim -scenario dumbbell                     # run one scenario
//	cmsim -scenario dumbbell,star -parallel 4    # run a batch across workers
//	cmsim -scenario dumbbell -runs 8 -parallel 8 # replicate for determinism checks
//	cmsim -scenario dumbbell -json               # machine-readable results
//	cmsim -scenario grid -shards 4               # shard one simulation across workers
//	cmsim -scenario fattree -param k=8           # parameterised builder scenarios
//	cmsim -scenario p2p -param bandwidth=10e6 -param delay=0.03 \
//	      -param loss=0.01 -param flows=4        # the paper's Fig 3 path
//	cmsim -scenario p2p-native -param flows=2    # the same without the CM
//	cmsim -scenario isp -param aggs=16 -param access=25 -param hosts=250 \
//	      -buildprofile isp100k                  # profile a 100k-host Build and exit
//
// Sweep mode (see docs/SWEEPS.md for the axis and campaign grammar):
//
//	cmsim -scenario p2p -sweep "link[0].loss=0,0.01,0.05" -replicates 3       # list axis
//	cmsim -scenario p2p -sweep "link[0].bandwidth=1e6:10e6:4" -csv            # linear axis
//	cmsim -scenario p2p -sweep "workload[0].flows=log:1:64:7"                 # log axis
//	cmsim -campaign examples/campaigns/fig3.json -csv                         # campaign file
//	cmsim -campaign examples/campaigns/churn-soak.json -check-invariants -csv # robustness soak
//
// Sweep results aggregate each selected metric across seed replicates
// (mean/stddev/min/max/p50/p99) and emit as an aligned table, -json, or
// deterministic -csv whose bytes are identical for any -parallel setting.
//
// Observability (see docs/OBSERVABILITY.md for the probe grammar):
//
//	cmsim -scenario dumbbell -probe "link[0].queue_depth" \
//	      -probe "cm[s0].cwnd@100ms" -probe-csv probes.csv    # mid-run time series
//	cmsim -scenario churn -trace-out trace.txt                # flight-recorder dump
//	cmsim -scenario grid -shards 4 -timeline-out timeline.json # Chrome trace_event
//	cmsim -scenario churn -snapshot-every 1s -check-invariants # first-violation time
//	cmsim -scenario grid -shards 4 -report report.json        # structured run report
//	cmsim -scenario grid -report-md report.md                 # same, as markdown
//	cmsim -campaign examples/campaigns/fig3.json -plot-dir plots # sweep SVG figures
//
// A run report bundles the spec summary, result counters, routing audit,
// faults verdict, per-event-kind cost attribution and probe summaries into
// one deterministic document; a non-clean faults verdict exits nonzero, like
// -check-invariants.
//
// Every simulation owns its scheduler and seeded random sources, so a batch
// produces byte-identical results whether -parallel is 1 or 8.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// sweepFlags collects repeated -sweep flags.
type sweepFlags []string

func (s *sweepFlags) String() string     { return strings.Join(*s, "; ") }
func (s *sweepFlags) Set(v string) error { *s = append(*s, v); return nil }

// probeFlags collects repeated -probe flags as parsed probe specs. Each flag
// is "target" or "target@interval" (e.g. "link[0].queue_depth@100ms"); the
// target grammar is validated here so a typo fails at flag-parse time.
type probeFlags []probe.Spec

func (p *probeFlags) String() string {
	var parts []string
	for _, ps := range *p {
		parts = append(parts, ps.Target)
	}
	return strings.Join(parts, "; ")
}

func (p *probeFlags) Set(v string) error {
	target, iv, hasInterval := strings.Cut(v, "@")
	ps := probe.Spec{Target: target}
	if hasInterval {
		d, err := time.ParseDuration(iv)
		if err != nil {
			return fmt.Errorf("probe %q: bad interval %q", v, iv)
		}
		ps.Interval = d
	}
	if _, err := probe.ParseTarget(ps.Target); err != nil {
		return err
	}
	*p = append(*p, ps)
	return nil
}

// paramFlags collects repeated -param name=value flags for parameterised
// scenario builders.
type paramFlags map[string]float64

func (p paramFlags) String() string {
	var parts []string
	for k, v := range p {
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	return strings.Join(parts, " ")
}

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %q: bad value %q", name, val)
	}
	p[name] = v
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's body on its own flag set and streams, returning the exit
// status, so that tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sweeps sweepFlags
	var probes probeFlags
	params := make(paramFlags)
	var (
		list     = fs.Bool("list", false, "print the registered scenarios and exit")
		names    = fs.String("scenario", "", "comma-separated scenario names to run (see -list)")
		parallel = fs.Int("parallel", 1, "worker goroutines for the batch (0 = GOMAXPROCS)")
		runs     = fs.Int("runs", 1, "replicas of each scenario (for determinism and sweep checks)")
		shards   = fs.Int("shards", 0, "shard one simulation across this many worker goroutines (0/1 = serial; results are byte-identical)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON")

		campaign   = fs.String("campaign", "", "run a sweep campaign from this JSON file (see docs/SWEEPS.md)")
		replicates = fs.Int("replicates", 1, "sweep mode: seed replicates per sweep point")
		csvOut     = fs.Bool("csv", false, "sweep mode: emit the aggregated results as CSV")
		checkInv   = fs.Bool("check-invariants", false, "run the faults invariant checker over every result; violations go to stderr and exit nonzero (see docs/ROBUSTNESS.md); with -snapshot-every the checker also runs over every mid-run snapshot and reports the first-violation time")

		probeCSV    = fs.String("probe-csv", "", "write the first run's probe series as CSV to this file (\"-\" = stdout); declare probes with -probe (see docs/OBSERVABILITY.md)")
		traceDepth  = fs.Int("trace-depth", 0, "per-host flight-recorder ring depth in events (0 = tracing off)")
		traceOut    = fs.String("trace-out", "", "dump the flight-recorder rings to this file after the first run (\"-\" = stdout); implies -trace-depth 1024 when unset")
		timelineOut = fs.String("timeline-out", "", "write the first run's execution timeline as Chrome trace_event JSON to this file (load in chrome://tracing or Perfetto)")
		snapEvery   = fs.Duration("snapshot-every", 0, "capture a full mid-run result snapshot at this virtual-time interval")
		reportOut   = fs.String("report", "", "write the first run's structured run report as JSON to this file (\"-\" = stdout); arms per-event-kind cost attribution and exits nonzero on a non-clean faults verdict")
		reportMD    = fs.String("report-md", "", "write the first run's structured run report as markdown to this file (\"-\" = stdout)")
		plotDir     = fs.String("plot-dir", "", "sweep mode: render the campaign's plots (or derived defaults) as SVG files into this directory (see docs/SWEEPS.md)")
	)
	fs.Var(&sweeps, "sweep", "sweep mode: one axis as param=values (repeatable): v1,v2,... | min:max:steps | log:min:max:steps")
	fs.Var(&probes, "probe", "declarative sampling probe as target[@interval] (repeatable), e.g. link[0].queue_depth@100ms; series land in results and sweep aggregation (see docs/OBSERVABILITY.md)")
	fs.Var(params, "param", "builder parameter for a parameterised -scenario as name=value (repeatable), e.g. -scenario fattree -param k=8")
	buildProfile := fs.String("buildprofile", "", "build the -scenario topology under profiling, write <prefix>.cpu.pprof and <prefix>.heap.pprof, report build time, and exit without running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name     string
		v, least int
	}{{"runs", *runs, 1}, {"replicates", *replicates, 1}, {"shards", *shards, 0},
		{"parallel", *parallel, 0}, {"trace-depth", *traceDepth, 0}} {
		if f.v < f.least {
			fmt.Fprintf(stderr, "cmsim: -%s %d: want at least %d\n", f.name, f.v, f.least)
			return 2
		}
	}
	if *snapEvery < 0 {
		fmt.Fprintf(stderr, "cmsim: -snapshot-every %v: want at least 0s\n", *snapEvery)
		return 2
	}

	if *list {
		for _, name := range scenario.List() {
			fmt.Fprintf(stdout, "%-18s %s\n", name, scenario.Describe(name))
		}
		return 0
	}

	if *buildProfile != "" {
		if err := profileBuild(stdout, *buildProfile, *names, params, *shards); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}

	if *campaign != "" || len(sweeps) > 0 {
		set := make(map[string]bool)
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		ok, err := runCampaign(stdout, stderr, *campaign, sweeps, probes, *names, params, *replicates, *shards, *parallel, *jsonOut, *csvOut, *checkInv, *plotDir, set)
		switch {
		case err != nil:
			fmt.Fprintln(stderr, err)
			return 2
		case !ok:
			return 1
		}
		return 0
	}

	if *names == "" {
		fmt.Fprintln(stderr, "cmsim: nothing to run: name a -scenario (see -list) or a -campaign")
		return 2
	}
	var specs []scenario.Spec
	for _, name := range strings.Split(*names, ",") {
		name = strings.TrimSpace(name)
		spec, err := scenario.LookupParams(name, params)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.Shards = *shards
		for r := 0; r < *runs; r++ {
			specs = append(specs, spec)
		}
	}

	if *traceOut != "" && *traceDepth == 0 {
		*traceDepth = 1024
	}
	for i := range specs {
		specs[i].Probes = append(specs[i].Probes, probes...)
		if *traceDepth > 0 {
			specs[i].TraceDepth = *traceDepth
		}
		if *snapEvery > 0 {
			specs[i].SnapshotEvery = *snapEvery
		}
	}

	// Runs that need mid-run artifacts (a trace dump, an execution timeline,
	// snapshots for first-violation reporting, a run report) keep the built
	// Sim around, so they drive the pieces directly instead of going through
	// the batch runner; results are byte-identical either way.
	wantReport := *reportOut != "" || *reportMD != ""
	instrumented := *traceOut != "" || *timelineOut != "" || *snapEvery > 0 || wantReport
	// Cost attribution rides the run report and the execution timeline's
	// per-window breakdowns; profiling observes execution only, so arming it
	// never changes the Result.
	profile := wantReport || *timelineOut != ""
	var outcomes []scenario.RunOutcome
	var sims []*scenario.Sim
	if instrumented {
		for _, spec := range specs {
			sim, res, err := runInstrumentedSpec(spec, *timelineOut != "", profile)
			if err != nil {
				outcomes = append(outcomes, scenario.RunOutcome{Err: err.Error()})
				sims = append(sims, nil)
				continue
			}
			outcomes = append(outcomes, scenario.RunOutcome{Result: res})
			sims = append(sims, sim)
		}
	} else {
		outcomes = scenario.Runner{Parallel: *parallel}.RunAll(specs)
	}

	var firstSim *scenario.Sim
	firstRes := (*scenario.Result)(nil)
	for i, sim := range sims {
		if sim != nil {
			firstSim = sim
			firstRes = outcomes[i].Result
			break
		}
	}
	if *timelineOut != "" && firstSim != nil {
		if err := writeArtifact(stdout, *timelineOut, firstSim.ExecutionTimeline().WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *traceOut != "" && firstSim != nil {
		err := writeArtifact(stdout, *traceOut, func(w io.Writer) error {
			firstSim.DumpTrace(w)
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	var runReport *report.Report
	if wantReport {
		if firstSim == nil || firstRes == nil {
			fmt.Fprintln(stderr, "-report: no successful run to report")
			return 2
		}
		runReport = report.Build(firstSim, firstRes)
		if *reportOut != "" {
			if err := writeArtifact(stdout, *reportOut, runReport.WriteJSON); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
		if *reportMD != "" {
			if err := writeArtifact(stdout, *reportMD, runReport.WriteMarkdown); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
		}
	}
	if *probeCSV != "" {
		err := writeArtifact(stdout, *probeCSV, func(w io.Writer) error {
			for _, o := range outcomes {
				if o.Result == nil {
					continue
				}
				series := make([]*probe.Series, len(o.Result.Series))
				for i := range o.Result.Series {
					series[i] = &o.Result.Series[i]
				}
				_, err := io.WriteString(w, probe.CSV(series...))
				return err
			}
			return fmt.Errorf("-probe-csv: no successful run to report")
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outcomes); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else {
		for i, o := range outcomes {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			printResult(stdout, o)
		}
	}
	if *checkInv {
		var violations []faults.Violation
		firstAt := int64(-1)
		for i, o := range outcomes {
			if o.Result == nil {
				continue
			}
			if instrumented && sims[i] != nil && len(sims[i].Snapshots()) > 0 {
				vs, fa := faults.CheckSnapshots(sims[i].Snapshots(), o.Result)
				violations = append(violations, vs...)
				if fa >= 0 && (firstAt < 0 || fa < firstAt) {
					firstAt = fa
				}
			} else {
				violations = append(violations, faults.Check(o.Result)...)
			}
		}
		if firstAt >= 0 {
			fmt.Fprintf(stderr, "first invariant violation at t=%v\n", time.Duration(firstAt))
		}
		if reportViolations(stderr, violations) {
			// A violation with the flight recorder armed but no -trace-out:
			// dump the rings to stderr so the evidence isn't lost.
			if *traceOut == "" && *traceDepth > 0 && firstSim != nil {
				firstSim.DumpTrace(stderr)
			}
			return 1
		}
	}
	// The run report's verdict carries the same weight as -check-invariants:
	// a non-clean report is a failed run.
	if runReport != nil && !runReport.Faults.Clean {
		reportViolations(stderr, runReport.Faults.Violations)
		return 1
	}
	for _, o := range outcomes {
		if o.Err != "" {
			return 1
		}
	}
	return 0
}

// runInstrumentedSpec builds and runs one spec in-process, keeping the Sim
// so mid-run artifacts (flight-recorder rings, execution timeline, mid-run
// snapshots) survive the run for the caller to export.
func runInstrumentedSpec(spec scenario.Spec, timeline, profile bool) (*scenario.Sim, *scenario.Result, error) {
	sim, err := scenario.Build(spec)
	if err != nil {
		return nil, nil, err
	}
	if timeline {
		sim.EnableExecutionTimeline()
	}
	if profile {
		sim.EnableProfiling()
	}
	if err := sim.Start(); err != nil {
		return nil, nil, err
	}
	sim.RunToEnd()
	return sim, sim.Finish(), nil
}

// writeArtifact writes one output file ("-" = stdout) through fn.
func writeArtifact(stdout io.Writer, path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportViolations prints invariant violations to stderr, returning whether
// there were any.
func reportViolations(stderr io.Writer, violations []faults.Violation) bool {
	for _, v := range violations {
		fmt.Fprintf(stderr, "invariant violation: %s\n", v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "%d invariant violation(s)\n", len(violations))
		return true
	}
	return false
}

// runCampaign executes sweep mode: a campaign loaded from a JSON file, or
// one assembled from -scenario plus repeated -sweep axes. With -campaign,
// explicitly passed -replicates/-shards override the file's values; a
// -scenario alongside -campaign is rejected rather than silently ignored.
// An input error is returned (exit 2). A campaign that ran is not ok (exit 1)
// when any replicate failed, each failed point's first error going to stderr,
// or when -check-invariants found a violation.
func runCampaign(stdout, stderr io.Writer, file string, sweeps []string, probes []probe.Spec, names string, params map[string]float64, replicates, shards, parallel int, jsonOut, csvOut, checkInv bool, plotDir string, set map[string]bool) (ok bool, err error) {
	var camp sweep.Campaign
	switch {
	case file != "" && len(sweeps) > 0:
		return false, fmt.Errorf("-campaign and -sweep are mutually exclusive")
	case file != "":
		if set["scenario"] {
			return false, fmt.Errorf("-campaign and -scenario are mutually exclusive (the campaign file names its base)")
		}
		if len(params) > 0 {
			return false, fmt.Errorf("-campaign and -param are mutually exclusive (the campaign file carries its params)")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return false, err
		}
		if camp, err = sweep.DecodeCampaign(data); err != nil {
			return false, fmt.Errorf("campaign %s: %w", file, err)
		}
		if set["replicates"] {
			camp.Replicates = replicates
		}
		if set["shards"] {
			camp.Shards = shards
		}
	default:
		if names == "" || strings.Contains(names, ",") {
			return false, fmt.Errorf("-sweep needs exactly one base -scenario")
		}
		camp = sweep.Campaign{Name: names, Scenario: names, Params: params, Replicates: replicates, Shards: shards}
		for _, s := range sweeps {
			axis, err := parseSweepAxis(s)
			if err != nil {
				return false, err
			}
			camp.Axes = append(camp.Axes, axis)
		}
	}
	// CLI probes stack on whatever the campaign file declares; each becomes a
	// probe.* metric column of the aggregated output.
	camp.Probes = append(camp.Probes, probes...)
	res, err := camp.Run(scenario.Runner{Parallel: parallel})
	if err != nil {
		return false, err
	}
	switch {
	case csvOut:
		fmt.Fprint(stdout, res.CSV())
	case jsonOut:
		data, err := res.JSON()
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	default:
		fmt.Fprint(stdout, res.Table())
	}
	if plotDir != "" {
		if err := os.MkdirAll(plotDir, 0o755); err != nil {
			return false, err
		}
		files, err := camp.WritePlots(res, plotDir)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stderr, "wrote %d plot(s) to %s: %s\n", len(files), plotDir, strings.Join(files, " "))
	}
	ok = true
	for _, pt := range res.Points {
		if pt.Failed > 0 {
			fmt.Fprintf(stderr, "point %d: %d of %d replicate(s) failed: %s\n", pt.Index, pt.Failed, res.Replicates, pt.Errors[0])
			ok = false
		}
	}
	if checkInv && reportViolations(stderr, faults.CheckCampaign(res)) {
		ok = false
	}
	return ok, nil
}

// profileBuild builds one scenario's topology with CPU and heap profiling
// around scenario.Build only — no traffic runs — so the profiles isolate
// topology construction and route installation. It writes <prefix>.cpu.pprof
// and <prefix>.heap.pprof and reports wall-clock build time and heap use.
func profileBuild(stdout io.Writer, prefix, name string, params map[string]float64, shards int) error {
	if name == "" || strings.Contains(name, ",") {
		return fmt.Errorf("-buildprofile needs exactly one -scenario")
	}
	spec, err := scenario.LookupParams(name, params)
	if err != nil {
		return err
	}
	spec.Shards = shards
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return err
	}
	start := time.Now()
	sim, err := scenario.Build(spec)
	elapsed := time.Since(start)
	pprof.StopCPUProfile()
	if cerr := cpu.Close(); cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	heap, err := os.Create(prefix + ".heap.pprof")
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(heap); err != nil {
		heap.Close()
		return err
	}
	if err := heap.Close(); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(stdout, "built %s: %d nodes, %d links in %v (heap in use %d MB)\n",
		spec.Name, len(sim.Nodes()), len(spec.Links), elapsed.Round(time.Millisecond), ms.HeapInuse>>20)
	fmt.Fprintf(stdout, "profiles: %s.cpu.pprof %s.heap.pprof (go tool pprof <file>)\n", prefix, prefix)
	return nil
}

// parseSweepAxis parses one -sweep flag: "param=v1,v2,..." (a list, strings
// when any value is non-numeric), "param=min:max:steps" (linear) or
// "param=log:min:max:steps".
func parseSweepAxis(s string) (sweep.Axis, error) {
	param, spec, ok := strings.Cut(s, "=")
	if !ok || param == "" || spec == "" {
		return sweep.Axis{}, fmt.Errorf("-sweep %q: want param=values", s)
	}
	axis := sweep.Axis{Param: param}
	if colons := strings.Split(spec, ":"); len(colons) > 1 {
		if colons[0] == "log" {
			axis.Scale = sweep.ScaleLog
			colons = colons[1:]
		}
		if len(colons) != 3 {
			return sweep.Axis{}, fmt.Errorf("-sweep %q: range wants min:max:steps", s)
		}
		var err error
		if axis.Min, err = strconv.ParseFloat(colons[0], 64); err != nil {
			return sweep.Axis{}, fmt.Errorf("-sweep %q: bad min %q", s, colons[0])
		}
		if axis.Max, err = strconv.ParseFloat(colons[1], 64); err != nil {
			return sweep.Axis{}, fmt.Errorf("-sweep %q: bad max %q", s, colons[1])
		}
		if axis.Steps, err = strconv.Atoi(colons[2]); err != nil || axis.Steps < 1 {
			return sweep.Axis{}, fmt.Errorf("-sweep %q: bad steps %q", s, colons[2])
		}
		return axis, nil
	}
	parts := strings.Split(spec, ",")
	nums := make([]float64, 0, len(parts))
	numeric := true
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			numeric = false
			break
		}
		nums = append(nums, v)
	}
	if numeric {
		axis.Values = nums
	} else {
		axis.Strings = parts
	}
	return axis, nil
}

// printResult renders one outcome for the terminal.
func printResult(w io.Writer, o scenario.RunOutcome) {
	if o.Err != "" {
		fmt.Fprintf(w, "error: %s\n", o.Err)
		return
	}
	r := o.Result
	fmt.Fprintf(w, "scenario %s: %d flow(s), virtual time %v\n", r.Scenario, len(r.Flows), r.EndTime.Round(time.Millisecond))
	if rr := r.Routing; rr != nil {
		converged := "converged"
		if !rr.Converged {
			converged = "NOT converged by end of run"
		}
		fmt.Fprintf(w, "  routing [%s protocol]: %d agent(s), %d msgs (%d triggered, %d refreshes), %d table change(s), %s (deadline %v), post-convergence drops=%d\n",
			rr.Mode, rr.Agents, rr.MessagesSent, rr.TriggeredUpdates, rr.Refreshes,
			rr.TableChanges, converged, rr.ConvergenceDeadline.Round(time.Millisecond),
			rr.PostConvergenceRouteDrops)
		if rr.FaultDropped+rr.FaultDelayed+rr.FaultDuplicated > 0 {
			fmt.Fprintf(w, "    control-faults: dropped=%d delayed=%d duplicated=%d holddown-suppressed=%d\n",
				rr.FaultDropped, rr.FaultDelayed, rr.FaultDuplicated, rr.HolddownSuppressed)
		}
		if rr.AuditedPairs > 0 {
			fmt.Fprintf(w, "    audit: %d pair(s), loops=%d unreached=%d partitioned=%d pending-at-end=%d\n",
				rr.AuditedPairs, rr.LoopPairs, rr.UnreachedPairs, rr.PartitionedPairs, rr.PendingAtEnd)
		}
	}
	for _, ev := range r.Events {
		fired := "fired"
		if !ev.Fired {
			fired = "not fired"
			if ev.PastEnd {
				fired = "past end, not fired"
			}
		}
		dir := ev.Direction
		if dir == "" {
			dir = "both"
		}
		target := fmt.Sprintf("link=%d dir=%s", ev.Link, dir)
		if ev.HostEvent() {
			target = "host=" + ev.Host
		}
		extra := ""
		if ev.FlowsWiped > 0 {
			extra = fmt.Sprintf(" flows-wiped=%d", ev.FlowsWiped)
		}
		fmt.Fprintf(w, "  event t=%v %s %s %s routes-changed=%d%s\n",
			ev.At, ev.Kind, target, fired, ev.RoutesChanged, extra)
	}
	for _, f := range r.Flows {
		status := "ok"
		if !f.Completed {
			status = "incomplete"
		}
		extra := ""
		if f.LayerSwitches > 0 {
			extra = fmt.Sprintf(" layer-switches=%d", f.LayerSwitches)
		}
		fmt.Fprintf(w, "  flow %d.%d %s->%s:%d [%s] %s delivered=%d elapsed=%v throughput=%.0f KB/s rtx=%d timeouts=%d srtt=%v%s\n",
			f.Workload, f.Flow, f.From, f.To, f.Port, f.CC, status,
			f.Delivered, f.Elapsed.Round(time.Millisecond), f.ThroughputKBps,
			f.Retransmissions, f.Timeouts, f.SRTT.Round(time.Millisecond), extra)
	}
	for _, l := range r.Links {
		if l.SentPackets == 0 && l.DownDrops == 0 {
			continue
		}
		fmt.Fprintf(w, "  link %s: sent=%d drops(queue/bernoulli/burst/down)=%d/%d/%d/%d delivered=%dB",
			l.Name, l.SentPackets, l.QueueDrops, l.BernoulliDrops, l.BurstDrops, l.DownDrops, l.DeliveredOctets)
		if l.GEGoodPackets+l.GEBadPackets > 0 {
			fmt.Fprintf(w, " ge(good/bad/transitions)=%d/%d/%d", l.GEGoodPackets, l.GEBadPackets, l.GETransitions)
		}
		fmt.Fprintln(w)
	}
	for _, h := range r.Hosts {
		if !h.Router {
			continue
		}
		fmt.Fprintf(w, "  router %s: forwarded=%d (%dB) forward-miss=%d route-miss=%d ttl-expired=%d\n",
			h.Name, h.ForwardedPackets, h.ForwardedBytes, h.ForwardMissDrops, h.RouteMissDrops, h.TTLExpiredDrops)
	}
	for _, c := range r.CMs {
		fmt.Fprintf(w, "  cm %s: %d macroflow(s), %d flows, %d grants, %d updates, %d notifies, %d queries\n",
			c.Host, c.Macroflows, c.Flows, c.GrantsIssued, c.Updates, c.Notifies, c.Queries)
		if c.Restarts > 0 || c.StaleFlowCalls > 0 || c.MacroflowResets > 0 {
			fmt.Fprintf(w, "    churn: restarts=%d stale-calls=%d macroflow-resets=%d stranded=%d\n",
				c.Restarts, c.StaleFlowCalls, c.MacroflowResets, c.StrandedFlows)
		}
		if c.DroppedSends+c.DelayedSends+c.DroppedUpdates+c.DelayedUpdates > 0 {
			fmt.Fprintf(w, "    notify-faults: dropped-sends=%d delayed-sends=%d dropped-updates=%d delayed-updates=%d stale-updates-dropped=%d\n",
				c.DroppedSends, c.DelayedSends, c.DroppedUpdates, c.DelayedUpdates, c.StaleUpdatesDropped)
		}
	}
}
