package experiments

import (
	"fmt"
	"time"

	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// FailureConfig parameterises the adaptation-under-failure experiment: a
// dumbbell whose shared bottleneck fails and recovers on a schedule while the
// senders' CM macroflows are observed. The paper's evaluation varies
// available bandwidth with cross traffic (Figures 8-10); this runner goes
// further and removes the path entirely, the churn the dynamics subsystem
// exists to model.
type FailureConfig struct {
	// DownAt / UpAt bracket the bottleneck outage (defaults 6 s / 10 s).
	DownAt, UpAt time.Duration
	// Duration is the trace length (default 30 s).
	Duration time.Duration
	// SampleEvery is the observation interval (default 250 ms).
	SampleEvery time.Duration
	Seed        int64
}

func (c *FailureConfig) fillDefaults() {
	if c.DownAt <= 0 {
		c.DownAt = 6 * time.Second
	}
	if c.UpAt <= c.DownAt {
		c.UpAt = c.DownAt + 4*time.Second
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FailureResult holds the observed traces of one adaptation-under-failure
// run.
type FailureResult struct {
	Config FailureConfig
	// Window is the s0 CM's aggregate congestion window in bytes, sampled
	// every SampleEvery (the dumbbell's s0 drives a single macroflow, so the
	// aggregate is the s0->d0 macroflow window).
	Window *probe.Series
	// Rate is the macroflow's sustainable-rate estimate (bytes/second).
	Rate *probe.Series
	// WindowBefore/WindowDuring/WindowAfter summarise the back-off story:
	// the window just before the outage, at the end of the outage, and at
	// the end of the run.
	WindowBefore, WindowDuring, WindowAfter int
	// Result is the scenario outcome, including the executed event records.
	Result *scenario.Result
}

// RunFailure executes the adaptation-under-failure experiment. The mid-run
// observation is entirely declarative: two spec probes sample the sender
// CM's aggregate window and rate, and the back-off summary is computed from
// the returned series — the runner never drives the scheduler itself.
func RunFailure(cfg FailureConfig) (FailureResult, error) {
	cfg.fillDefaults()
	spec := scenario.FlakyDumbbell(scenario.FlakyDumbbellParams{
		DownAt: cfg.DownAt,
		UpAt:   cfg.UpAt,
		Dumbbell: scenario.DumbbellParams{
			Duration: cfg.Duration,
			Seed:     cfg.Seed,
		},
	})
	spec.Probes = append(spec.Probes,
		probe.Spec{Target: "cm[s0].cwnd", Interval: cfg.SampleEvery, Name: "macroflow-cwnd"},
		probe.Spec{Target: "cm[s0].rate", Interval: cfg.SampleEvery, Name: "macroflow-rate"},
	)
	res := FailureResult{Config: cfg}
	out, err := scenario.Run(spec)
	if err != nil {
		return res, err
	}
	res.Result = out
	res.Window = &out.Series[len(out.Series)-2]
	res.Rate = &out.Series[len(out.Series)-1]
	// The back-off summary is the last sample of each phase: just before the
	// outage, at its end, and at the end of the run.
	for i := 0; i < res.Window.Len(); i++ {
		p := res.Window.At(i)
		switch {
		case p.T <= cfg.DownAt:
			res.WindowBefore = int(p.V)
		case p.T <= cfg.UpAt:
			res.WindowDuring = int(p.V)
		default:
			res.WindowAfter = int(p.V)
		}
	}
	return res, nil
}

// Table renders the trace and the back-off/recovery summary.
func (r FailureResult) Table() string {
	rows := make([][]string, 0, r.Window.Len())
	for i := 0; i < r.Window.Len(); i++ {
		w := r.Window.At(i)
		rate := 0.0
		if i < r.Rate.Len() {
			rate = r.Rate.At(i).V
		}
		phase := "up"
		if w.T > r.Config.DownAt && w.T <= r.Config.UpAt {
			phase = "DOWN"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", w.T.Seconds()),
			phase,
			fmt.Sprintf("%.0f", w.V/1024),
			fmt.Sprintf("%.0f", rate/1024),
		})
	}
	title := fmt.Sprintf(
		"Adaptation under failure (bottleneck down %v-%v): s0->d0 macroflow cwnd %dKB before, %dKB during outage, %dKB after recovery\n",
		r.Config.DownAt, r.Config.UpAt,
		r.WindowBefore/1024, r.WindowDuring/1024, r.WindowAfter/1024)
	if r.Result != nil {
		for _, ev := range r.Result.Events {
			title += fmt.Sprintf("event t=%v %s link=%d fired=%v routes-changed=%d\n",
				ev.At, ev.Kind, ev.Link, ev.Fired, ev.RoutesChanged)
		}
	}
	return title + sweep.FormatTable([]string{"t(s)", "link", "cwnd KB", "rate KB/s"}, rows)
}

// CSV renders the failure traces for plotting.
func (r FailureResult) CSV() string {
	return probe.CSV(r.Window, r.Rate)
}
