// Command cmperf is the simulator's benchmark: seven workloads, each run as
// timed repetitions with every instrument disarmed (the end-to-end metrics)
// and as a traced twin with the simulator's own observation-only instruments
// and a CPU profile armed (the per-layer metrics). It drives the simulator
// through exported functions only and verifies what it produces. See
// README.md; run it from the repository root with `bash bench/run.sh`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// setupBlocks is how many timed set-up blocks a run takes the median of.
const setupBlocks = 5

type options struct {
	workloads []*workload
	seed      int64
	seconds   float64
	reps      int
	untraced  bool // measure the end-to-end metrics
	traced    bool // measure the per-layer metrics
	scale     float64
	out       string
}

// more reports whether repetition n (from 1) of a loop should run: a fixed
// count with -reps, otherwise at least min and then until the deadline.
func (o *options) more(n, min int, deadline time.Time) bool {
	if o.reps > 0 {
		return n <= o.reps
	}
	return n <= min || time.Now().Before(deadline)
}

func (o *options) deadline() time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// summary is one end-to-end metric over a run's repetitions. Value is the
// figure the run reports for the metric; the rest describes the repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// describe reduces a series to its median and quartiles.
func describe(vs []float64) summary {
	q1, q3 := quartiles(vs)
	return summary{Median: median(vs), Q1: q1, Q3: q3, N: len(vs), Values: vs}
}

// summarize is what a run reports for metric d given its repetitions.
func summarize(d metricDef, vs []float64) summary {
	s := describe(vs)
	s.Unit, s.Value = d.Unit, s.Median
	if d.fastest {
		s.Value = slices.Max(vs)
	}
	return s
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload's run measured and checked.
type workloadResult struct {
	Name      string             `json:"name"`
	SimDigest string             `json:"sim_digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
}

// document is the result file -out writes and -compare reads.
type document struct {
	Nproc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	GOARCH     string           `json:"goarch"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "all", "comma-separated workload names, or all")
		seed     = fs.Int64("seed", 1, "workload seed, fed to each builder's Seed")
		seconds  = fs.Float64("seconds", runSeconds, "how long each measuring loop runs")
		reps     = fs.Int("reps", 0, "fixed repetition count instead of -seconds")
		trace    = fs.String("trace", "both", "0: end-to-end metrics, 1: per-layer metrics from the traced twin, both")
		scale    = fs.Float64("scale", 1, "multiply simulated durations (tests only; results are not comparable)")
		out      = fs.String("out", "", "write the result document to this file")
		compare  = fs.Bool("compare", false, "compare result documents: -compare parent.json[,..] change.json[,..]")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cmperf:", err)
		return 1
	}
	if *manifest {
		stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes the parent's and the change's result files, got %d arguments", fs.NArg()))
		}
		regressed, err := compareRuns(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	o := &options{seed: *seed, seconds: *seconds, reps: *reps, scale: *scale, out: *out}
	switch *trace {
	case "0":
		o.untraced = true
	case "1":
		o.traced = true
	case "both":
		o.untraced, o.traced = true, true
	default:
		return fail(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	if *names == "all" {
		for i := range workloads {
			o.workloads = append(o.workloads, &workloads[i])
		}
	} else {
		for _, name := range strings.Split(*names, ",") {
			w, err := findWorkload(name)
			if err != nil {
				return fail(err)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if o.scale != 1 {
		fmt.Fprintf(stdout, "\n*** -scale %g: NOT COMPARABLE with any other run; no result file is written ***\n\n", o.scale)
		if o.out != "" {
			return fail(fmt.Errorf("-out refused with -scale %g", o.scale))
		}
	}

	// The container has 2 cores; sharded and campaign workloads use both.
	runtime.GOMAXPROCS(2)
	doc := document{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH,
		Seed: o.seed, Seconds: o.seconds,
	}
	fmt.Fprintf(stdout, "cmperf: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d seconds=%g\n",
		doc.Nproc, doc.GOMAXPROCS, doc.GoVersion, runtime.GOOS, doc.GOARCH, o.seed, o.seconds)

	var api map[string]float64
	if o.traced {
		var err error
		if api, err = runAPILoops(time.Duration(float64(apiBudget) * min(o.scale, 1))); err != nil {
			return fail(err)
		}
	}
	failed := 0
	for _, w := range o.workloads {
		wr, err := runWorkload(w, o, api)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printWorkload(stdout, wr)
		failed += wr.Failed
		doc.Workloads = append(doc.Workloads, *wr)
	}
	printCMOverhead(stdout, &doc)
	if o.traced {
		if err := writeTrace(filepath.Join("bench", "out", "trace.json")); err != nil {
			return fail(err)
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return fail(err)
		}
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	// One workload in one mode is how the acceptance driver runs the
	// benchmark: it reads the last line of standard output.
	if len(doc.Workloads) == 1 && o.untraced != o.traced {
		line, err := driverLine(&doc.Workloads[0])
		if err != nil {
			return fail(err)
		}
		stdout.Write(line)
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "cmperf: %d checks failed\n", failed)
		return 1
	}
	return 0
}

// runWorkload measures one workload: the untraced repetitions and set-up
// blocks, then the traced twins, checking every output on the way.
func runWorkload(w *workload, o *options, api map[string]float64) (*workloadResult, error) {
	j, err := newJob(w, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	c := &checks{}

	// Without -trace 0 the untraced repetitions are only the reference the
	// traced twin is compared with, and two are enough.
	deadline := time.Now()
	if o.untraced {
		deadline = o.deadline()
	}
	var untraced []*rep
	for n := 1; o.more(n, 2, deadline); n++ {
		var ref *rep
		if len(untraced) > 0 {
			ref = untraced[0]
		}
		r, err := j.run(false)
		c.verify(fmt.Sprintf("repetition %d", n), r, err, ref)
		if err != nil {
			continue
		}
		recordSpans(w.name, n, false, r)
		untraced = append(untraced, r)
	}
	if len(untraced) == 0 {
		return nil, fmt.Errorf("every repetition failed: %s", strings.Join(c.notes, "; "))
	}
	ref := untraced[0]

	var serial *rep
	if w.serialTwin {
		twin := *j
		twin.specs = slices.Clone(j.specs)
		twin.specs[0].Shards = 0
		serial, err = twin.run(false)
		c.verify("serial twin", serial, err, nil)
		if err == nil {
			c.check(serial.digest == ref.digest, "digest %.12s differs from the serial twin's %.12s", ref.digest, serial.digest)
		}
	}

	wr := &workloadResult{Name: w.name, SimDigest: ref.digest}
	if o.untraced {
		wr.EndToEnd, err = endToEndMetrics(j, untraced)
		if err != nil {
			return nil, err
		}
	}
	if o.traced {
		tr, err := runTraced(j, o, ref, c)
		if err != nil {
			return nil, err
		}
		layer := layerMetrics(j, tr, untraced, serial, api)
		wr.PerLayer = make(map[string]value, len(perLayer))
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = value{layer[d.Name], d.Unit}
		}
	}
	wr.Attempted, wr.Failed, wr.Notes = c.attempted, c.failed, c.notes
	return wr, nil
}

// endToEndMetrics reduces the untraced repetitions to the end-to-end table
// and times the set-up blocks.
func endToEndMetrics(j *job, reps []*rep) (map[string]summary, error) {
	k := float64(j.blockK(j.w.encodeK))
	per := map[string]func(r *rep) float64{
		"sim_s_per_wall_s": func(r *rep) float64 { return r.simSeconds / r.phases[phaseRun] },
		"sim_pkts_per_s":   func(r *rep) float64 { return float64(r.pktHops) / r.phases[phaseRun] },
		"allocs_per_pkt":   func(r *rep) float64 { return float64(r.mallocs) / float64(r.pktHops) },
		"bytes_per_pkt":    func(r *rep) float64 { return float64(r.bytes) / float64(r.pktHops) },
		"heap_live_mb":     func(r *rep) float64 { return float64(r.heapLive) / (1 << 20) },
		"encode_s": func(r *rep) float64 {
			return (r.phases[phaseCheck] + r.phases[phaseEncode]) / k
		},
	}
	setup := make([]float64, setupBlocks)
	for i := range setup {
		var err error
		if setup[i], err = j.setupBlock(); err != nil {
			return nil, err
		}
	}
	out := make(map[string]summary, len(endToEnd))
	for _, d := range endToEnd {
		vs := setup
		if f := per[d.Name]; f != nil {
			vs = make([]float64, len(reps))
			for i, r := range reps {
				vs[i] = f(r)
			}
		}
		out[d.Name] = summarize(d, vs)
	}
	return out, nil
}

// printWorkload prints every metric of one workload by name and unit.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s  sim_digest=%s  checks=%d failed=%d\n", wr.Name, wr.SimDigest, wr.Attempted, wr.Failed)
	for _, note := range wr.Notes {
		fmt.Fprintf(w, "   FAILED %s\n", note)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	if wr.EndToEnd != nil {
		fmt.Fprintln(tw, "end-to-end\tunit\tvalue\tmedian\tq1\tq3\tn")
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, s.Unit, s.Value, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	if wr.PerLayer != nil {
		fmt.Fprintln(tw, "per-layer (traced twin)\tunit\tvalue")
		for _, d := range perLayer {
			v := wr.PerLayer[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\n", d.Name, v.Unit, v.Value)
		}
	}
	tw.Flush()
}

// printCMOverhead prints the whole-run form of the paper's API-overhead
// number when both grid twins ran: wall nanoseconds per packet-hop with the
// CM in the path, minus without.
func printCMOverhead(w io.Writer, doc *document) {
	nsPerPkt := map[string]float64{}
	for _, wr := range doc.Workloads {
		if s, ok := wr.EndToEnd["sim_pkts_per_s"]; ok && s.Value > 0 {
			nsPerPkt[wr.Name] = 1e9 / s.Value
		}
	}
	cm, okCM := nsPerPkt["grid64_cm"]
	native, okNative := nsPerPkt["grid64_native"]
	if okCM && okNative {
		fmt.Fprintf(w, "\ncm overhead, whole run: %.1f ns/pkt-hop (grid64_cm %.1f - grid64_native %.1f)\n", cm-native, cm, native)
	}
}

// driverLine renders the one-line result the acceptance driver parses.
func driverLine(wr *workloadResult) ([]byte, error) {
	metrics := map[string]value{}
	for name, s := range wr.EndToEnd {
		metrics[name] = value{s.Value, s.Unit}
	}
	for name, v := range wr.PerLayer {
		metrics[name] = v
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wr.Name, err) // a metric is NaN or infinite
	}
	return append(line, '\n'), nil
}
