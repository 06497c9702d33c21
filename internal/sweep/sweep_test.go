package sweep

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/scenario"
)

// --- expansion -------------------------------------------------------------

// TestCampaignExpansionGolden pins the cross-product order and the seed
// derivation: points enumerate row-major with the first axis slowest, string
// axes do not perturb the derived seeds (variant pairing), and the stride
// constants are part of the campaign format.
func TestCampaignExpansionGolden(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 1000}},
	})
	camp := Campaign{
		Name: "golden",
		Base: &base,
		Axes: []Axis{
			{Param: "workload[0].cc", Strings: []string{"cm", "native"}},
			{Param: "link[0].loss", Values: []float64{0, 0.01, 0.02}},
		},
		Replicates: 2,
		Seed:       100,
	}
	points, err := camp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	type coord struct {
		cc   string
		loss float64
	}
	wantCoords := []coord{
		{"cm", 0}, {"cm", 0.01}, {"cm", 0.02},
		{"native", 0}, {"native", 0.01}, {"native", 0.02},
	}
	// The loss axis is the only numeric one, so point seeds depend on the
	// loss index alone: the cm and native variants at one loss share seeds.
	wantSeeds := [][]int64{
		{100, 100 + 7919}, {100 + 1_000_003, 100 + 1_000_003 + 7919}, {100 + 2_000_006, 100 + 2_000_006 + 7919},
		{100, 100 + 7919}, {100 + 1_000_003, 100 + 1_000_003 + 7919}, {100 + 2_000_006, 100 + 2_000_006 + 7919},
	}
	for i, pt := range points {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		got := coord{pt.Values[0].Str, pt.Values[1].Num}
		if got != wantCoords[i] {
			t.Fatalf("point %d coord = %+v, want %+v", i, got, wantCoords[i])
		}
		if len(pt.Seeds) != 2 || pt.Seeds[0] != wantSeeds[i][0] || pt.Seeds[1] != wantSeeds[i][1] {
			t.Fatalf("point %d seeds = %v, want %v", i, pt.Seeds, wantSeeds[i])
		}
		for r, spec := range pt.Specs {
			if spec.Seed != pt.Seeds[r] {
				t.Fatalf("point %d replicate %d spec seed %d != %d", i, r, spec.Seed, pt.Seeds[r])
			}
			if spec.Workloads[0].CC != got.cc || spec.Links[0].LossRate != got.loss {
				t.Fatalf("point %d spec not patched: %+v", i, spec.Workloads[0])
			}
		}
	}
	// Patching must never leak into the shared base or across specs.
	if base.Workloads[0].CC != "" || base.Links[0].LossRate != 0 {
		t.Fatalf("base spec mutated: %+v", base.Workloads[0])
	}
}

// TestSeedAxisOverridesDerivation: an explicit "seed" axis becomes the seed
// itself; only the replicate stride is added.
func TestSeedAxisOverridesDerivation(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{})
	camp := Campaign{
		Base:       &base,
		Axes:       []Axis{{Param: "seed", Values: []float64{41, 97}}},
		Replicates: 2,
	}
	points, err := camp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{41, 41 + 7919}, {97, 97 + 7919}}
	for i, pt := range points {
		if pt.Seeds[0] != want[i][0] || pt.Seeds[1] != want[i][1] {
			t.Fatalf("point %d seeds = %v, want %v", i, pt.Seeds, want[i])
		}
	}
}

func TestAxisScales(t *testing.T) {
	lin, err := Axis{Param: "link[0].loss", Min: 0, Max: 0.04, Steps: 5}.expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 0.01, 0.02, 0.03, 0.04} {
		if diff := lin[i].Num - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("linear[%d] = %v, want %v", i, lin[i].Num, want)
		}
	}
	log, err := Axis{Param: "link[0].bandwidth", Scale: ScaleLog, Min: 1e6, Max: 1e8, Steps: 3}.expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1e6, 1e7, 1e8} {
		if ratio := log[i].Num / want; ratio < 0.999999 || ratio > 1.000001 {
			t.Fatalf("log[%d] = %v, want %v", i, log[i].Num, want)
		}
	}
	if _, err := (Axis{Param: "x", Scale: ScaleLog, Min: 0, Max: 1, Steps: 3}).expand(); err == nil {
		t.Fatal("log scale with min 0 must fail")
	}
	if _, err := (Axis{Param: "x"}).expand(); err == nil {
		t.Fatal("axis without values must fail")
	}
	if _, err := (Axis{Param: "x", Strings: []string{"a"}, Values: []float64{1}}).expand(); err == nil {
		t.Fatal("mixed strings+values must fail")
	}
}

// --- patching --------------------------------------------------------------

func TestApplyParams(t *testing.T) {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver"}},
	})
	num := func(v float64) Value { return Value{Num: v} }
	str := func(s string) Value { return Value{Str: s, IsString: true} }
	cases := []struct {
		param string
		v     Value
		check func() bool
	}{
		{"seed", num(7), func() bool { return spec.Seed == 7 }},
		{"shards", num(4), func() bool { return spec.Shards == 4 }},
		{"duration", num(2.5), func() bool { return spec.Duration == 2500*time.Millisecond }},
		{"link[0].loss", num(0.03), func() bool { return spec.Links[0].LossRate == 0.03 }},
		{"link[0].bandwidth", num(5e6), func() bool { return spec.Links[0].Bandwidth == 5*netsim.Mbps }},
		{"link[0].delay", num(0.02), func() bool { return spec.Links[0].Delay == 20*time.Millisecond }},
		{"link[0].queue", num(64), func() bool { return spec.Links[0].QueuePackets == 64 }},
		{"link[0].seed", num(9), func() bool { return spec.Links[0].Seed == 9 }},
		{"link[0].ge.p_good_bad", num(0.1), func() bool { return spec.Links[0].Gilbert.PGoodBad == 0.1 }},
		{"link[0].ge.p_bad_good", num(0.2), func() bool { return spec.Links[0].Gilbert.PBadGood == 0.2 }},
		{"link[0].ge.loss_bad", num(0.9), func() bool { return spec.Links[0].Gilbert.LossBad == 0.9 }},
		{"link[0].ge.loss_good", num(0.01), func() bool { return spec.Links[0].Gilbert.LossGood == 0.01 }},
		{"workload[0].flows", num(8), func() bool { return spec.Workloads[0].Flows == 8 }},
		{"workload[0].bytes", num(4096), func() bool { return spec.Workloads[0].Bytes == 4096 }},
		{"workload[0].rate", num(12.5), func() bool { return spec.Workloads[0].Rate == 12.5 }},
		{"workload[0].start", num(1.5), func() bool { return spec.Workloads[0].Start == 1500*time.Millisecond }},
		{"workload[0].recv_window", num(65536), func() bool { return spec.Workloads[0].RecvWindow == 65536 }},
		{"workload[0].cc", str("cm"), func() bool { return spec.Workloads[0].CC == "cm" }},
		{"workload[0].kind", str("webmix"), func() bool { return spec.Workloads[0].Kind == "webmix" }},
	}
	for _, c := range cases {
		c.v.Param = c.param
		if err := Apply(&spec, c.param, c.v); err != nil {
			t.Fatalf("Apply(%q): %v", c.param, err)
		}
		if !c.check() {
			t.Fatalf("Apply(%q) did not take", c.param)
		}
	}
	// A patched spec must still validate.
	spec.Workloads[0].Kind = scenario.KindBulk
	if err := spec.Validate(); err != nil {
		t.Fatalf("patched spec invalid: %v", err)
	}
}

func TestApplyErrors(t *testing.T) {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver"}},
	})
	spec.Generators = []dynamics.Generator{{Kind: dynamics.GenCMRestarts, Host: "sender", Mean: time.Second}}
	for _, c := range []struct {
		param string
		v     Value
	}{
		{"nonsense", Value{Num: 1}},
		{"link[5].loss", Value{Num: 1}},
		{"link.loss", Value{Num: 1}},
		{"link[x].loss", Value{Num: 1}},
		{"link[0].frobnicate", Value{Num: 1}},
		{"link[0].ge.tick", Value{Num: 0.05}},
		{"workload[0].cc", Value{Num: 1}},                 // string param, numeric value
		{"link[0].loss", Value{Str: "a", IsString: true}}, // numeric param, string value
		{"seed[0]", Value{Num: 1}},
		// Integer params refuse what they would otherwise round or wrap.
		{"workload[0].flows", Value{Num: 2.5}},
		{"workload[0].bytes", Value{Num: 1e19}},
		{"workload[0].recv_window", Value{Num: math.NaN()}},
		{"link[0].queue", Value{Num: 64.5}},
		{"link[0].seed", Value{Num: math.Inf(-1)}},
		{"shards", Value{Num: 1.5}},
		{"seed", Value{Num: 0x1p63}},
		{"generator[0].seed", Value{Num: 7.25}},
	} {
		if err := Apply(&spec, c.param, c.v); err == nil {
			t.Fatalf("Apply(%q) should fail", c.param)
		}
	}
}

func TestApplyAllLinks(t *testing.T) {
	spec := scenario.Dumbbell(scenario.DumbbellParams{Senders: 2, Receivers: 2})
	if err := Apply(&spec, "link[*].loss", Value{Num: 0.02}); err != nil {
		t.Fatal(err)
	}
	for i := range spec.Links {
		if spec.Links[i].LossRate != 0.02 {
			t.Fatalf("link %d not patched", i)
		}
	}
}

// --- flattening ------------------------------------------------------------

func TestFlattenResult(t *testing.T) {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 100_000}},
		Duration:  10 * time.Second,
	})
	res, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	flat := Flatten(res)
	for _, key := range []string{
		"end_time",
		"flows[0].delivered",
		"flows[0].completed",
		"flows[0].throughput_kbps",
		"links[0].SentPackets",
		"links[1].SentPackets",
		"hosts[0].ReceivedBytes",
		"total.delivered_bytes",
		"total.goodput_kbps",
		"total.completed",
	} {
		if _, ok := flat[key]; !ok {
			t.Fatalf("flattened result missing %q", key)
		}
	}
	if flat["flows[0].delivered"] != 100_000 {
		t.Fatalf("delivered = %v", flat["flows[0].delivered"])
	}
	if flat["flows[0].completed"] != 1 {
		t.Fatalf("completed = %v", flat["flows[0].completed"])
	}
	if flat["total.delivered_bytes"] != 100_000 {
		t.Fatalf("total delivered = %v", flat["total.delivered_bytes"])
	}
	// end_time flattens as seconds.
	if flat["end_time"] != 10 {
		t.Fatalf("end_time = %v, want 10", flat["end_time"])
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"total.*", "total.completed", true},
		{"total.*", "flows[0].delivered", false},
		{"flows[*].delivered", "flows[12].delivered", true},
		{"flows[*].delivered", "flows[0].throughput_kbps", false},
		{"exact", "exact", true},
		{"exact", "exact2", false},
		{"*", "anything", true},
	}
	for _, c := range cases {
		if got := globMatch(c.pat, c.s); got != c.want {
			t.Fatalf("globMatch(%q, %q) = %v", c.pat, c.s, got)
		}
	}
}

// --- execution -------------------------------------------------------------

// TestCampaignSerialParallelByteIdentical is the sweep-level determinism
// gate: a campaign over a spec with active dynamics — a declared
// Gilbert-Elliott fade plus stochastic generators (Poisson flaps on both
// directions and a faster one on the reverse direction) — emits byte-identical CSV and JSON whether the runner
// uses one worker or eight.
func TestCampaignSerialParallelByteIdentical(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    4 * netsim.Mbps,
			Delay:        10 * time.Millisecond,
			QueuePackets: 60,
			Gilbert:      &netsim.GilbertElliott{PGoodBad: 0.01, PBadGood: 0.2, LossBad: 0.5},
		},
		Workloads: []scenario.Workload{
			{Kind: scenario.KindStream, From: "sender", To: "receiver", CC: scenario.CCCM},
			{Kind: scenario.KindWebMix, From: "sender", To: "receiver", Flows: 10, Rate: 4, Bytes: 8 << 10},
		},
		Duration: 5 * time.Second,
	})
	base.Name = "sweep-dynamics"
	base.Generators = []dynamics.Generator{
		{Kind: dynamics.GenPoissonFlaps, Link: 0, MeanUp: 1500 * time.Millisecond, MeanDown: 200 * time.Millisecond},
		{Kind: dynamics.GenPoissonFlaps, Link: 0, Direction: dynamics.DirReverse, MeanUp: 500 * time.Millisecond, MeanDown: 100 * time.Millisecond},
	}
	camp := Campaign{
		Name: "dynamics-sweep",
		Base: &base,
		Axes: []Axis{
			{Param: "workload[0].cc", Strings: []string{scenario.CCCM, scenario.CCNative}},
			{Param: "link[0].ge.p_good_bad", Values: []float64{0.005, 0.02}},
		},
		Replicates: 2,
		Metrics:    []string{"total.*", "flows[*].delivered", "links[0].BurstDrops", "links[0].DownDrops"},
	}
	serial, err := camp.Run(scenario.Runner{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := camp.Run(scenario.Runner{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CSV() != parallel.CSV() {
		t.Fatal("CSV differs between serial and parallel execution")
	}
	sj, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Fatal("JSON differs between serial and parallel execution")
	}
	// The dynamics must actually have been active: generated link flaps
	// produce down drops or at least fired events in some run.
	fired := false
	for _, pt := range serial.Points {
		for _, r := range pt.Results {
			if len(r.Events) > 0 {
				for _, ev := range r.Events {
					if ev.Fired {
						fired = true
					}
				}
			}
		}
	}
	if !fired {
		t.Fatal("no generated dynamics events fired — the sweep did not exercise dynamics")
	}
}

// TestCampaignAggregatesAcrossReplicates checks the summaries really span
// the replicate axis: with per-replicate seeds and a lossy link, replicate
// throughputs differ, so stddev must be positive and min < max.
func TestCampaignAggregatesAcrossReplicates(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{
			Bandwidth:    8 * netsim.Mbps,
			Delay:        15 * time.Millisecond,
			QueuePackets: 60,
		},
		Workloads: []scenario.Workload{{
			Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 200_000,
		}},
		Duration: 30 * time.Second,
	})
	base.Name = "replicates"
	camp := Campaign{
		Base:       &base,
		Axes:       []Axis{{Param: "link[0].loss", Values: []float64{0.02}}},
		Replicates: 4,
		Metrics:    []string{"flows[0].throughput_kbps"},
	}
	res, err := camp.Run(scenario.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := res.Points[0].Metrics["flows[0].throughput_kbps"]
	if !ok {
		t.Fatalf("metric missing: %v", res.Points[0].Metrics)
	}
	if s.N != 4 {
		t.Fatalf("n = %d, want 4", s.N)
	}
	if !(s.Min < s.Max) || s.Stddev <= 0 {
		t.Fatalf("replicates did not vary: %+v", s)
	}
	if s.Mean < s.Min || s.Mean > s.Max || s.P50 < s.Min || s.P99 > s.Max {
		t.Fatalf("summary inconsistent: %+v", s)
	}
}

// TestShardsAxisOverridesCampaignShards: a swept "shards" axis wins over the
// campaign-level default, so the emitted shards column always reports what
// ran.
func TestShardsAxisOverridesCampaignShards(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{})
	camp := Campaign{
		Base:   &base,
		Shards: 2,
		Axes:   []Axis{{Param: "shards", Values: []float64{1, 4}}},
	}
	points, err := camp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Specs[0].Shards != 1 || points[1].Specs[0].Shards != 4 {
		t.Fatalf("shards axis clobbered by campaign default: %d / %d",
			points[0].Specs[0].Shards, points[1].Specs[0].Shards)
	}
	// Without the axis, the campaign-level default applies.
	camp.Axes = []Axis{{Param: "link[0].loss", Values: []float64{0}}}
	points, err = camp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Specs[0].Shards != 2 {
		t.Fatalf("campaign shards not applied: %d", points[0].Specs[0].Shards)
	}
}

// TestCampaignScenarioByName runs a registry-backed campaign, the cmsim
// -sweep path.
func TestCampaignScenarioByName(t *testing.T) {
	camp := Campaign{
		Scenario: "p2p",
		Axes:     []Axis{{Param: "workload[0].flows", Values: []float64{1, 2}}},
	}
	res, err := camp.Run(scenario.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Metrics["total.flows"].Mean != 1 || res.Points[1].Metrics["total.flows"].Mean != 2 {
		t.Fatalf("flows axis did not take: %+v / %+v",
			res.Points[0].Metrics["total.flows"], res.Points[1].Metrics["total.flows"])
	}
}

// TestCampaignRecordsErrors: a point whose spec fails validation reports the
// failure instead of aborting the whole campaign.
func TestCampaignRecordsErrors(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 1000}},
	})
	camp := Campaign{
		Base: &base,
		// "bogus" is not a workload kind: that point must fail, the other run.
		Axes: []Axis{{Param: "workload[0].kind", Strings: []string{scenario.KindBulk, "bogus"}}},
	}
	res, err := camp.Run(scenario.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Failed != 0 || len(res.Points[0].Metrics) == 0 {
		t.Fatalf("valid point failed: %+v", res.Points[0])
	}
	if res.Points[1].Failed != 1 || len(res.Points[1].Errors) != 1 {
		t.Fatalf("invalid point not recorded: %+v", res.Points[1])
	}
}

// TestCampaignRecordsOutOfRangeLink: a link value the spec refuses fails its
// point, which then contributes no CSV row, and the in-range point runs.
func TestCampaignRecordsOutOfRangeLink(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Workloads: []scenario.Workload{{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 1000}},
	})
	camp := Campaign{
		Base: &base,
		Axes: []Axis{{Param: "link[0].loss", Values: []float64{0.01, 1.5}}},
	}
	res, err := camp.Run(scenario.Runner{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Failed != 0 || len(res.Points[0].Metrics) == 0 {
		t.Fatalf("in-range point failed: %+v", res.Points[0])
	}
	if pt := res.Points[1]; pt.Failed != 1 || len(pt.Errors) != 1 || !strings.Contains(pt.Errors[0], "loss_rate 1.5 out of [0,1]") {
		t.Fatalf("out-of-range point not recorded as failed: %+v", pt)
	}
	for _, row := range strings.Split(res.CSV(), "\n") {
		if strings.HasPrefix(row, "1,") {
			t.Fatalf("failed point emitted a CSV row: %s", row)
		}
	}
}

// TestCampaignProbeMetrics: campaign-level probes land on every expanded
// spec, their series summarise into probe.* metrics under the default metric
// selection, and the columns appear in the CSV.
func TestCampaignProbeMetrics(t *testing.T) {
	base := scenario.PointToPoint(scenario.PointToPointParams{
		Link: netsim.LinkConfig{Bandwidth: 4 * netsim.Mbps, Delay: 10 * time.Millisecond, QueuePackets: 60},
		Workloads: []scenario.Workload{
			{Kind: scenario.KindBulk, From: "sender", To: "receiver", Bytes: 1 << 20, CC: scenario.CCCM},
		},
		Duration: 4 * time.Second,
	})
	base.Name = "probe-sweep"
	camp := Campaign{
		Name: "probe-sweep",
		Base: &base,
		Axes: []Axis{{Param: "link[0].loss", Values: []float64{0, 0.01}}},
		Probes: []probe.Spec{
			{Target: "link[0].queue_depth"},
			{Target: "link[0].utilization"},
			{Target: "cm[sender].cwnd", Name: "cwnd"},
		},
		Replicates: 2,
	}
	res, err := camp.Run(scenario.Runner{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		for _, key := range []string{
			"probe.link[0].queue_depth.mean", "probe.link[0].utilization.max",
			"probe.cwnd.last", "probe.cwnd.samples", "total.delivered_bytes",
		} {
			if _, ok := pt.Metrics[key]; !ok {
				t.Fatalf("point %d is missing metric %q", pt.Index, key)
			}
		}
		if got := pt.Metrics["probe.cwnd.samples"].Mean; got != 16 {
			t.Fatalf("point %d: cwnd samples = %v, want 16 (4s at 250ms)", pt.Index, got)
		}
	}
	csv := res.CSV()
	for _, col := range []string{"probe.cwnd.mean", "probe.link[0].queue_depth.max"} {
		if !strings.Contains(csv, col) {
			t.Fatalf("CSV is missing %q", col)
		}
	}
	// The raw per-point series must never leak into the flattened key space.
	for key := range res.Points[0].Metrics {
		if strings.Contains(key, "series[") || strings.Contains(key, ".points[") {
			t.Fatalf("raw series key %q leaked into metrics", key)
		}
	}
}
