package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/apicost"
	"repro/internal/app"
	"repro/internal/probe"
)

// The experiment tests verify the *shape* requirements listed in DESIGN.md:
// who wins, by roughly what factor, and where the qualitative behaviour
// (decay, convergence, improvement) appears. Absolute numbers are not
// compared against the paper's testbed.

func TestFig3ShapeThroughputDecaysWithLossAndCMTracksLinux(t *testing.T) {
	cfg := Fig3Config{
		LossPercents:  []float64{0, 1, 3, 5},
		TransferBytes: 400_000,
		Trials:        1,
	}
	res := RunFig3(cfg)
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.CMFailed > 0 || p.LinuxFail > 0 {
			t.Fatalf("runs failed at loss %.1f%%: %+v", p.LossPct, p)
		}
		if p.CMKBps <= 0 || p.LinuxKBps <= 0 {
			t.Fatalf("zero throughput at loss %.1f%%", p.LossPct)
		}
		// TCP/CM should track TCP/Linux within a factor of two in both
		// directions (the paper shows them close together).
		ratio := p.CMKBps / p.LinuxKBps
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("CM/Linux ratio %.2f at loss %.1f%% outside [0.5, 2.0]", ratio, p.LossPct)
		}
	}
	// Throughput decays substantially as loss grows, for both stacks.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.CMKBps >= 0.8*first.CMKBps {
		t.Fatalf("CM throughput should decay with loss: %.0f -> %.0f", first.CMKBps, last.CMKBps)
	}
	if last.LinuxKBps >= 0.8*first.LinuxKBps {
		t.Fatalf("Linux throughput should decay with loss: %.0f -> %.0f", first.LinuxKBps, last.LinuxKBps)
	}
	if !strings.Contains(res.Table(), "Figure 3") {
		t.Fatal("table rendering broken")
	}
}

func TestFig4ShapeCMWithinAFractionOfAPercent(t *testing.T) {
	cfg := Fig4Config{BufferCounts: []int{200, 2000}, BufferSize: 8192}
	res := RunFig4(cfg)
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.CMKBps <= 0 || p.LinuxKBps <= 0 {
			t.Fatalf("zero throughput at %d buffers", p.Buffers)
		}
		// Figure 4: the worst-case difference is ~0.5 %; allow 2 %.
		if p.DiffPercent > 2.0 || p.DiffPercent < -2.0 {
			t.Fatalf("CM vs Linux difference %.2f%% at %d buffers exceeds 2%%", p.DiffPercent, p.Buffers)
		}
	}
	// The difference shrinks (or at least does not grow) with transfer length.
	if res.Points[1].DiffPercent > res.Points[0].DiffPercent+0.5 {
		t.Fatalf("difference should shrink with longer transfers: %+v", res.Points)
	}
	if !strings.Contains(res.Table(), "Figure 4") {
		t.Fatal("table rendering broken")
	}
}

func TestFig5ShapeCPUOverheadUnderOnePercent(t *testing.T) {
	res := RunFig5(Fig5Config{Fig4: Fig4Config{BufferCounts: []int{200, 2000}, BufferSize: 8192}})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.CMUtil <= 0 || p.LinuxUtil <= 0 || p.CMUtil > 1 || p.LinuxUtil > 1 {
			t.Fatalf("utilisation out of range: %+v", p)
		}
		if p.DiffPercentU < -0.5 {
			t.Fatalf("CM should not use less CPU than Linux: %+v", p)
		}
	}
	// Figure 5: the difference converges to slightly under 1 percentage point
	// for long transfers.
	last := res.Points[len(res.Points)-1]
	if last.DiffPercentU > 1.0 {
		t.Fatalf("long-run CM CPU overhead %.2f pp exceeds 1 pp", last.DiffPercentU)
	}
	if !strings.Contains(res.Table(), "Figure 5") {
		t.Fatal("table rendering broken")
	}
}

func TestTable1Reproduction(t *testing.T) {
	res := RunTable1(apicost.CostModel{})
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Table()
	for _, want := range []string{"cm_notify", "cm_request", "recv", "gettimeofday", "-baseline-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6ShapeOrderingAndWorstCase(t *testing.T) {
	res := RunFig6(Fig6Config{})
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	if res.WorstCaseReduction < 0.15 || res.WorstCaseReduction > 0.35 {
		t.Fatalf("worst-case throughput reduction %.2f outside ~25%% band", res.WorstCaseReduction)
	}
	// For every size the ordering must match Figure 6.
	bySize := map[int]map[apicost.Variant]time.Duration{}
	for _, p := range res.Points {
		if bySize[p.Size] == nil {
			bySize[p.Size] = map[apicost.Variant]time.Duration{}
		}
		bySize[p.Size][p.Variant] = p.PerPkt
	}
	for size, m := range bySize {
		if !(m[apicost.ALFNoConnect] > m[apicost.ALF] &&
			m[apicost.ALF] > m[apicost.Buffered] &&
			m[apicost.Buffered] > m[apicost.TCPCMNoDelay] &&
			m[apicost.TCPCMNoDelay] >= m[apicost.TCPCM] &&
			m[apicost.TCPCM] >= m[apicost.TCPLinux]) {
			t.Fatalf("ordering violated at %dB: %v", size, m)
		}
	}
	if !strings.Contains(res.Table(), "Figure 6") {
		t.Fatal("table rendering broken")
	}
}

func TestFig7ShapeSharedStateSpeedsUpLaterRequests(t *testing.T) {
	cfg := Fig7Config{FileSize: 96 * 1024, Requests: 5, Spacing: 300 * time.Millisecond}
	res := RunFig7(cfg)
	if len(res.CMms) != 5 || len(res.Linuxms) != 5 {
		t.Fatalf("incomplete results: cm=%d linux=%d", len(res.CMms), len(res.Linuxms))
	}
	// The CM's later requests must be substantially faster than its first
	// (the paper reports ~40 %).
	if res.ImprovementPct < 15 {
		t.Fatalf("CM improvement first->last = %.0f%%, want >= 15%%", res.ImprovementPct)
	}
	// The unmodified server gains nothing across requests: its times stay
	// roughly flat.
	minL, maxL := res.Linuxms[0], res.Linuxms[0]
	for _, v := range res.Linuxms {
		if v < minL {
			minL = v
		}
		if v > maxL {
			maxL = v
		}
	}
	if maxL > 1.35*minL {
		t.Fatalf("Linux completion times should be flat, got min=%.0f max=%.0f", minL, maxL)
	}
	// The CM's first transfer pays a small penalty (initial window 1 vs 2).
	if res.FirstRequestPenaltyMs < 0 {
		t.Fatalf("CM first request should not be faster than Linux first request (penalty %.0f ms)", res.FirstRequestPenaltyMs)
	}
	// Later CM requests beat the Linux baseline.
	if res.CMms[len(res.CMms)-1] >= res.Linuxms[len(res.Linuxms)-1] {
		t.Fatalf("later CM requests should beat Linux: cm=%.0f linux=%.0f",
			res.CMms[len(res.CMms)-1], res.Linuxms[len(res.Linuxms)-1])
	}
	if !strings.Contains(res.Table(), "Figure 7") {
		t.Fatal("table rendering broken")
	}
}

func adaptationTestConfig(mode app.LayeredMode, policy app.FeedbackPolicy) AdaptationConfig {
	return AdaptationConfig{
		Mode:     mode,
		Duration: 12 * time.Second,
		Feedback: policy,
		CrossOn:  3 * time.Second,
		CrossOff: 3 * time.Second,
	}
}

func TestFig8ALFAdaptationTrace(t *testing.T) {
	res := RunAdaptation(adaptationTestConfig(app.ModeALF, app.FeedbackPolicy{EveryPackets: 1}))
	if res.TransmissionRate.Len() == 0 || res.ReportedRate.Len() == 0 {
		t.Fatal("traces missing")
	}
	if res.Stats.PacketsSent == 0 || res.Stats.GrantsReceived == 0 {
		t.Fatalf("ALF server did not stream: %+v", res.Stats)
	}
	// The transmission rate must track the CM-reported rate: averaged over
	// the trace they agree within a factor of two.
	tx, rep := res.TransmissionRate.Summary().Mean, res.ReportedRate.Summary().Mean
	if tx <= 0 || rep <= 0 {
		t.Fatalf("zero rates: tx=%.0f reported=%.0f", tx, rep)
	}
	if tx > 2*rep || rep > 3*tx {
		t.Fatalf("transmission rate %.0f does not track reported rate %.0f", tx, rep)
	}
	if !strings.Contains(res.Table(), "alf") || !strings.Contains(res.CSV(), "transmission-rate") {
		t.Fatal("rendering broken")
	}
}

func TestFig9RateCallbackAdaptationTrace(t *testing.T) {
	res := RunAdaptation(adaptationTestConfig(app.ModeRateCallback, app.FeedbackPolicy{EveryPackets: 1}))
	if res.Stats.PacketsSent == 0 {
		t.Fatal("rate-callback server did not stream")
	}
	if res.Stats.GrantsReceived != 0 {
		t.Fatal("rate-callback mode must not use the request/callback API")
	}
	if res.Stats.RateCallbacks == 0 {
		t.Fatal("no rate callbacks were delivered")
	}
	// Self-clocked transmission follows the chosen layer: the average
	// transmission rate stays within the configured layer range.
	tx := res.TransmissionRate.Summary().Mean
	cfg := res.Config
	if tx < cfg.Layers[0]*0.5 || tx > cfg.Layers[len(cfg.Layers)-1]*1.2 {
		t.Fatalf("transmission rate %.0f outside the layer range", tx)
	}
}

func TestFig10DelayedFeedbackIsBurstier(t *testing.T) {
	perPacket := RunAdaptation(adaptationTestConfig(app.ModeRateCallback, app.FeedbackPolicy{EveryPackets: 1}))
	delayed := RunAdaptation(adaptationTestConfig(app.ModeRateCallback,
		app.FeedbackPolicy{EveryPackets: 500, MaxDelay: 2 * time.Second}))
	if delayed.Stats.PacketsSent == 0 {
		t.Fatal("delayed-feedback server did not stream")
	}
	// Delaying feedback must drastically reduce the number of reports.
	if delayed.ReportsSent*5 > perPacket.ReportsSent {
		t.Fatalf("delayed feedback should produce far fewer reports: %d vs %d",
			delayed.ReportsSent, perPacket.ReportsSent)
	}
	if delayed.ReportsSent == 0 {
		t.Fatal("some reports must still arrive (min(500 pkts, 2 s) policy)")
	}
}

// The rate traces are sampled byte counters, so they conserve bytes: each
// sample times the width of its window, summed, is every byte the server sent
// and every byte the client took in, the last window included. The final
// window of the odd-length run is 300 ms, not TraceWindow.
func TestAdaptationTracesConserveBytes(t *testing.T) {
	odd := adaptationTestConfig(app.ModeRateCallback, app.FeedbackPolicy{EveryPackets: 1})
	odd.Duration += 300 * time.Millisecond
	for name, cfg := range map[string]AdaptationConfig{
		"fig8":  Fig8Config(),
		"fig9":  Fig9Config(),
		"fig10": Fig10Config(),
		"test":  adaptationTestConfig(app.ModeALF, app.FeedbackPolicy{EveryPackets: 1}),
		"odd":   odd,
	} {
		res := RunAdaptation(cfg)
		sum := func(s *probe.Series) (bytes int64) {
			prev := -res.Config.TraceWindow
			for _, p := range s.Points {
				bytes += int64(math.Round(p.V * (p.T - prev).Seconds()))
				prev = p.T
			}
			return bytes
		}
		if pts := res.TransmissionRate.Points; len(pts) == 0 || pts[len(pts)-1].T != res.Config.Duration {
			t.Errorf("%s: %d samples, the last not at %v", name, len(pts), res.Config.Duration)
		}
		if got := sum(res.TransmissionRate); got != res.Stats.BytesSent || got == 0 {
			t.Errorf("%s: transmission trace sums to %d B, server sent %d", name, got, res.Stats.BytesSent)
		}
		if got := sum(res.ClientRate); got != res.received || got == 0 {
			t.Errorf("%s: client trace sums to %d B, client took in %d", name, got, res.received)
		}
	}
}

func TestConnSetupComparable(t *testing.T) {
	res := RunConnSetup()
	if res.CM <= 0 || res.Linux <= 0 {
		t.Fatalf("setup times missing: %+v", res)
	}
	// "No appreciable difference" in the paper; identical in the simulator.
	diff := res.CM - res.Linux
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.2*float64(res.Linux) {
		t.Fatalf("setup times diverge: %+v", res)
	}
	if !strings.Contains(res.Table(), "Connection establishment") {
		t.Fatal("table rendering broken")
	}
}

func TestAblationInitialWindow(t *testing.T) {
	res := RunAblationInitialWindow()
	if res.FirstRequestIW1ms <= 0 || res.FirstRequestIW2ms <= 0 {
		t.Fatalf("missing results: %+v", res)
	}
	// A 2-MTU initial window should not be slower than a 1-MTU one for the
	// first transfer (the paper attributes the CM's extra RTT to this).
	if res.FirstRequestIW2ms > res.FirstRequestIW1ms+1 {
		t.Fatalf("IW=2 (%.0f ms) should not be slower than IW=1 (%.0f ms)",
			res.FirstRequestIW2ms, res.FirstRequestIW1ms)
	}
	if res.Table() == "" {
		t.Fatal("table rendering broken")
	}
}

func TestAblationBulkCalls(t *testing.T) {
	res := RunAblationBulkCalls(16)
	if res.Flows != 16 {
		t.Fatalf("flows = %d", res.Flows)
	}
	if res.BulkIoctls >= res.PerFlowIoctls {
		t.Fatalf("bulk requests should save crossings: bulk=%d perflow=%d", res.BulkIoctls, res.PerFlowIoctls)
	}
	if res.CrossingsSaved < 10 {
		t.Fatalf("expected to save at least 10 crossings for 16 flows, saved %d", res.CrossingsSaved)
	}
	if res.Table() == "" {
		t.Fatal("table rendering broken")
	}
}

func TestAblationScheduler(t *testing.T) {
	res := RunAblationScheduler()
	if res.EqualShare < 0.8 || res.EqualShare > 1.25 {
		t.Fatalf("equal weights should split grants evenly, ratio %.2f", res.EqualShare)
	}
	if res.WeightedShare < 2.0 || res.WeightedShare > 4.5 {
		t.Fatalf("weighted round-robin should give ~3x to the heavy flow, ratio %.2f", res.WeightedShare)
	}
	if res.Table() == "" {
		t.Fatal("table rendering broken")
	}
}

// TestRunFailureBackoffAndRecovery checks the adaptation-under-failure
// runner's headline numbers: the macroflow window collapses during the
// scheduled outage and re-probes after recovery, and both timeline events
// execute.
func TestRunFailureBackoffAndRecovery(t *testing.T) {
	res, err := RunFailure(FailureConfig{
		DownAt:   4 * time.Second,
		UpAt:     7 * time.Second,
		Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowDuring >= res.WindowBefore/2 {
		t.Fatalf("window did not back off during outage: before=%d during=%d",
			res.WindowBefore, res.WindowDuring)
	}
	if res.WindowAfter <= res.WindowDuring {
		t.Fatalf("window did not recover after link-up: during=%d after=%d",
			res.WindowDuring, res.WindowAfter)
	}
	if len(res.Result.Events) != 2 || !res.Result.Events[0].Fired || !res.Result.Events[1].Fired {
		t.Fatalf("event records wrong: %+v", res.Result.Events)
	}
	if res.Window.Len() == 0 || res.Rate.Len() != res.Window.Len() {
		t.Fatalf("trace lengths wrong: window=%d rate=%d", res.Window.Len(), res.Rate.Len())
	}
}
