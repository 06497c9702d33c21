package experiments

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/sweep"
)

// AdaptationConfig parameterises the layered-streaming adaptation traces of
// Figures 8, 9 and 10: a layered server streams to a client over a shared
// path while on/off cross-traffic changes the available bandwidth, and the
// experiment samples the server's and the client's counters every
// TraceWindow.
type AdaptationConfig struct {
	// Mode selects the ALF (Figure 8) or rate-callback (Figure 9/10) API.
	Mode app.LayeredMode
	// Duration is the length of the trace.
	Duration time.Duration
	// Feedback is the receiver's feedback policy; Figure 10 delays feedback
	// by min(500 packets, 2000 ms).
	Feedback app.FeedbackPolicy
	// Layers are the encoding rates in bytes/second.
	Layers []float64
	// PathBandwidth and RTT describe the wide-area path.
	PathBandwidth netsim.Bandwidth
	RTT           time.Duration
	// CrossRate is the cross-traffic rate during on periods (bytes/second);
	// CrossOn/CrossOff are the period lengths.
	CrossRate float64
	CrossOn   time.Duration
	CrossOff  time.Duration
	// TraceWindow is the sampling interval of the traces.
	TraceWindow time.Duration
	Seed        int64
}

func (c *AdaptationConfig) fillDefaults() {
	if c.Duration <= 0 {
		c.Duration = 25 * time.Second
	}
	if len(c.Layers) == 0 {
		// Four layers spanning roughly the 0-2.5 MB/s range of Figures 8-9.
		c.Layers = []float64{312_500, 625_000, 1_250_000, 2_500_000}
	}
	if c.PathBandwidth == 0 {
		c.PathBandwidth = 20 * netsim.Mbps
	}
	if c.RTT <= 0 {
		c.RTT = 70 * time.Millisecond
	}
	if c.CrossRate == 0 {
		c.CrossRate = 1_200_000
	}
	if c.CrossOn <= 0 {
		c.CrossOn = 5 * time.Second
	}
	if c.CrossOff <= 0 {
		c.CrossOff = 5 * time.Second
	}
	if c.TraceWindow <= 0 {
		c.TraceWindow = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 61
	}
}

// AdaptationResult holds the traces of one adaptation run. Every trace has
// one sample at 0 and one at the end of each TraceWindow, the last one at
// Duration even when that window is shorter. A rate sample at t covers the
// window that ends at t (the sample at 0 covers one TraceWindow before it):
// the bytes counted in (t - width, t], divided by the width.
type AdaptationResult struct {
	Config AdaptationConfig
	// TransmissionRate is the server's sending rate (bytes/second).
	TransmissionRate *probe.Series
	// ReportedRate is the rate the CM last reported to the application.
	ReportedRate *probe.Series
	// LayerRate is the nominal rate of the layer the application is sending.
	LayerRate *probe.Series
	// ClientRate is the rate the receiver took in (bytes/second).
	ClientRate *probe.Series
	// Stats are the server's counters.
	Stats app.LayeredStats
	// ReportsSent is the number of feedback reports the receiver generated.
	ReportsSent int64
	// received is the client's byte count at the end, which ClientRate sums
	// to.
	received int64
}

// RunAdaptation runs one layered-streaming adaptation experiment.
func RunAdaptation(cfg AdaptationConfig) AdaptationResult {
	cfg.fillDefaults()
	path := Path{
		Bandwidth:    cfg.PathBandwidth,
		OneWayDelay:  cfg.RTT / 2,
		QueuePackets: 150,
		Seed:         cfg.Seed,
	}
	w := newTestbed(path, true)
	lib := libcm.New(w.cm, w.clock, libcm.ModeAuto)

	client, err := app.NewReceiver(w.rcvr, 7000, cfg.Feedback)
	if err != nil {
		return AdaptationResult{Config: cfg}
	}
	srv, err := app.NewLayeredServer(w.sender, lib, client.Addr(), app.LayeredConfig{
		Mode:       cfg.Mode,
		Layers:     cfg.Layers,
		PacketSize: 1000,
	})
	if err != nil {
		return AdaptationResult{Config: cfg}
	}
	var cross *app.OnOffSource
	if cfg.CrossRate > 0 {
		cross, err = app.NewOnOffSource(w.sender, netsim.Addr{Host: "receiver", Port: 9990},
			cfg.CrossRate, 1000, cfg.CrossOn, cfg.CrossOff)
		if err == nil {
			// Cross traffic starts after a few seconds so the trace shows the
			// application ramping up, losing bandwidth, and recovering.
			w.clock.After(3*time.Second, cross.Start)
		}
	}
	res := AdaptationResult{
		Config:           cfg,
		TransmissionRate: probe.NewSeries("transmission-rate"),
		ReportedRate:     probe.NewSeries("cm-reported-rate"),
		LayerRate:        probe.NewSeries("layer-rate"),
		ClientRate:       probe.NewSeries("received-rate"),
	}
	srv.Start()
	var sent, recd int64
	width := cfg.TraceWindow // of the window that ends at t
	for t := time.Duration(0); ; t += width {
		w.sim.RunUntil(t)
		nowSent, nowRecd := srv.Stats().BytesSent, client.TotalBytes()
		res.TransmissionRate.Add(t, float64(nowSent-sent)/width.Seconds())
		res.ClientRate.Add(t, float64(nowRecd-recd)/width.Seconds())
		res.ReportedRate.Add(t, srv.ReportedRate())
		res.LayerRate.Add(t, cfg.Layers[srv.Layer()])
		sent, recd = nowSent, nowRecd
		if t == cfg.Duration {
			break
		}
		width = min(cfg.TraceWindow, cfg.Duration-t)
	}
	srv.Stop()
	if cross != nil {
		cross.Stop()
	}
	res.Stats = srv.Stats()
	res.ReportsSent, res.received = client.ReportsSent(), client.TotalBytes()
	return res
}

// Fig8Config returns the configuration of Figure 8 (ALF API, per-packet
// feedback, ~25 s trace).
func Fig8Config() AdaptationConfig {
	return AdaptationConfig{Mode: app.ModeALF, Duration: 25 * time.Second, Feedback: app.FeedbackPolicy{EveryPackets: 1}}
}

// Fig9Config returns the configuration of Figure 9 (rate-callback API,
// per-packet feedback, ~20 s trace).
func Fig9Config() AdaptationConfig {
	return AdaptationConfig{Mode: app.ModeRateCallback, Duration: 20 * time.Second, Feedback: app.FeedbackPolicy{EveryPackets: 1}}
}

// Fig10Config returns the configuration of Figure 10 (rate-callback API with
// feedback delayed by min(500 packets, 2000 ms), ~70 s trace).
func Fig10Config() AdaptationConfig {
	return AdaptationConfig{
		Mode:     app.ModeRateCallback,
		Duration: 70 * time.Second,
		Feedback: app.FeedbackPolicy{EveryPackets: 500, MaxDelay: 2 * time.Second},
	}
}

// Table renders the adaptation trace as time series rows (KB/s), matching the
// series plotted in Figures 8-10. The four series are sampled together, so
// they have the same instants.
func (r AdaptationResult) Table() string {
	rows := make([][]string, r.TransmissionRate.Len())
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("%.1f", r.TransmissionRate.At(i).T.Seconds())}
		for _, s := range []*probe.Series{r.TransmissionRate, r.ReportedRate, r.LayerRate, r.ClientRate} {
			rows[i] = append(rows[i], fmt.Sprintf("%.0f", s.At(i).V/1024))
		}
	}
	title := fmt.Sprintf("Adaptation trace (%s API, %d layer switches, %d rate callbacks, %d reports)\n",
		r.Config.Mode, r.Stats.LayerSwitches, r.Stats.RateCallbacks, r.ReportsSent)
	return title + sweep.FormatTable([]string{"t(s)", "tx KB/s", "CM-reported KB/s", "layer KB/s", "client KB/s"}, rows)
}

// CSV renders the adaptation traces as CSV for plotting.
func (r AdaptationResult) CSV() string {
	return probe.CSV(r.TransmissionRate, r.ReportedRate, r.LayerRate, r.ClientRate)
}
