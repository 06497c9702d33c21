package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload to a few milliseconds of wall time.
const testScale = 0.01

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the program's own tables; a hand edit of
// either side shows up here.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the program's tables; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
}

func TestManifestMeetsContract(t *testing.T) {
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(manifestJSON(), &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		name(d.Name)
	}
}

// Every workload builds, runs, passes its checks and reports every metric of
// BENCHMARK.json exactly once with a finite value.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	api, err := runAPILoops(time.Duration(float64(apiBudget) * testScale))
	if err != nil {
		t.Fatal(err)
	}
	o := &options{seed: 1, reps: 1, untraced: true, traced: true, scale: testScale}
	for i := range workloads {
		w := &workloads[i]
		wr, err := runWorkload(w, o, api)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, wr.Failed, wr.Attempted, wr.Notes)
		}
		line, err := driverLine(wr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var parsed struct {
			Metrics map[string]value
		}
		if err := json.Unmarshal(line, &parsed); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if want := len(endToEnd) + len(perLayer); len(parsed.Metrics) != want {
			t.Errorf("%s: %d metrics reported, want %d", w.name, len(parsed.Metrics), want)
		}
		for _, d := range endToEnd {
			if v, ok := parsed.Metrics[d.Name]; !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %v, want a positive finite number", w.name, d.Name, v.Value)
			}
		}
		var cpu float64
		for _, d := range perLayer {
			v, ok := parsed.Metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v), want a finite number", w.name, d.Name, v.Value, ok)
			}
			if strings.HasPrefix(d.Name, "cpu.") && strings.HasSuffix(d.Name, "_frac") {
				cpu += v.Value
			}
		}
		// A scaled-down twin can finish between two profiler ticks.
		if parsed.Metrics["cpu.samples"].Value > 0 && math.Abs(cpu-1) > 0.01 {
			t.Errorf("%s: cpu fractions sum to %v, want 1", w.name, cpu)
		}
	}
	if len(spans) == 0 {
		t.Error("no spans recorded")
	}
}

var spinSink uint64

// spin burns CPU for about d under a name the profile test looks for.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		for i := uint64(0); i < 1e5; i++ {
			spinSink += i * i
		}
	}
}

// The profile reader recovers stacks from a real profile and books every
// sample to exactly one bucket.
func TestCPUProfileBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || fn == "repro/bench.spin"
		}
	}
	if !found {
		t.Errorf("no sample of %d has repro/bench.spin on its stack", len(samples))
	}
	shares, total := cpuShares(samples)
	var sum float64
	for _, share := range shares {
		sum += share
	}
	if total < 10 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d samples, fractions sum to %v, want at least 10 and exactly 1", total, sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("a loop in package main should be booked to other, got %v", shares)
	}
	for stack, want := range map[string]string{
		"repro/internal/simtime.(*Scheduler).Step":                    "simtime",
		"repro/internal/scenario.(*Sim).startWorkloads.func1":         "scenario",
		"repro/internal/faults.Check":                                 "other",
		"runtime.memmove":                                             "runtime_other",
		"runtime.memclrNoHeapPointers runtime.mallocgc repro/bench.x": "runtime_gc",
		"runtime.scanobject runtime.gcDrain runtime.gcBgMarkWorker":   "runtime_gc",
		"aeshashbody runtime.mapaccess2_faststr":                      "runtime_other",
		"encoding/json.(*encodeState).marshal":                        "other",
	} {
		if got := cpuBucket(strings.Fields(stack)); got != want {
			t.Errorf("cpuBucket(%q) = %q, want %q", stack, got, want)
		}
	}
}

// A repetition whose output differs from the reference fails a check.
func TestCorruptedDigestFails(t *testing.T) {
	ref := &rep{digest: "aaaa", completed: []bool{true, false}}
	c := &checks{}
	c.verify("same", &rep{digest: "aaaa", completed: []bool{true, true}}, nil, ref)
	if c.failed != 0 {
		t.Fatalf("identical output failed %d checks: %v", c.failed, c.notes)
	}
	c.verify("corrupted", &rep{digest: "aaab", completed: []bool{true, false}}, nil, ref)
	if c.failed != 1 {
		t.Fatalf("corrupted digest failed %d checks, want 1: %v", c.failed, c.notes)
	}
	c.verify("unfinished", &rep{digest: "aaaa", completed: []bool{false, false}}, nil, ref)
	if c.failed != 2 {
		t.Fatalf("lost completion failed %d checks in total, want 2: %v", c.failed, c.notes)
	}
}

// A batch repetition is the sum of its simulations, each built from its own
// seed, and repeats byte for byte.
func TestBatchRepetitionAddsUp(t *testing.T) {
	w, err := findWorkload("churn_layered")
	if err != nil {
		t.Fatal(err)
	}
	j, err := newJob(w, 7, testScale)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64]bool{}
	var simSeconds float64
	for _, spec := range j.specs {
		seeds[spec.Seed] = true
		simSeconds += spec.Duration.Seconds()
	}
	if len(j.specs) < 2 || len(seeds) != len(j.specs) {
		t.Fatalf("%d simulations with %d distinct seeds, want a batch of distinct seeds", len(j.specs), len(seeds))
	}
	a, err := j.run(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := j.run(true)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.simSeconds != simSeconds || len(a.spans) != 4*len(j.specs)+2 {
		t.Errorf("digests %.12s and %.12s, %v of %v simulated seconds, %d spans for %d simulations",
			a.digest, b.digest, a.simSeconds, simSeconds, len(a.spans), len(j.specs))
	}
	if other, _ := newJob(w, 8, testScale); seeds[other.specs[0].Seed] {
		t.Error("workload seeds 7 and 8 share a simulation seed")
	}

}

// Quartiles follow Python's statistics.quantiles(n=4), which the acceptance
// driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4, 2}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(2, 4) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	rate := summarize(endToEnd[1], []float64{3, 5, 4})
	cost := summarize(endToEnd[2], []float64{3, 5, 4})
	if rate.Value != 5 || cost.Value != 4 {
		t.Errorf("%s reports %v and %s reports %v of 3, 5, 4; want the best, 5, and the median, 4",
			endToEnd[1].Name, rate.Value, endToEnd[2].Name, cost.Value)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "rate", Better: higher, Bound: 0.10}
	cost := metricDef{Name: "cost", Better: lower, Bound: 0.10}
	steady := func(v float64) summary {
		return describe([]float64{v * 0.99, v, v * 1.01, v, v})
	}
	noisy := func(v float64) summary {
		return describe([]float64{v * 0.7, v * 0.9, v, v * 1.1, v * 1.3})
	}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change summary
		want           string
	}{
		{"same", rate, steady(100), steady(100), verdictOK},
		{"slower within bound", rate, steady(100), steady(95), verdictOK},
		{"slower beyond bound", rate, steady(100), steady(80), verdictRegressed},
		{"faster", rate, steady(100), steady(150), verdictOK},
		{"cost up beyond bound", cost, steady(100), steady(120), verdictRegressed},
		{"cost down", cost, steady(100), steady(50), verdictOK},
		{"noisy and close", rate, noisy(100), noisy(95), verdictUnresolved},
		{"noisy but every run better", rate, noisy(100), noisy(300), verdictOK},
		{"noisy and every run worse", rate, noisy(300), noisy(100), verdictRegressed},
	} {
		if got, _ := judge(tc.d, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
