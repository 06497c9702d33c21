package experiments

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/netsim"
	"repro/internal/sweep"
	"repro/internal/tcp"
)

// Fig7Config parameterises the shared-congestion-state experiment of
// Figure 7: an unmodified web client sequentially fetches the same file from
// a server over fresh TCP connections; with the CM on the server the later
// requests reuse the macroflow's learned congestion window instead of slow
// starting from scratch.
type Fig7Config struct {
	// FileSize is the object size (128 KB in the paper).
	FileSize int
	// Requests is the number of sequential retrievals (9 in the paper).
	Requests int
	// Spacing is the delay between the end of one retrieval and the
	// initiation of the next (500 ms in the paper).
	Spacing time.Duration
	// Deadline bounds the run.
	Deadline time.Duration
}

func (c *Fig7Config) fillDefaults() {
	if c.FileSize <= 0 {
		c.FileSize = 128 * 1024
	}
	if c.Requests <= 0 {
		c.Requests = 9
	}
	if c.Spacing <= 0 {
		c.Spacing = 500 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 10 * time.Minute
	}
}

// Fig7Result is the reproduction of Figure 7: per-request completion times in
// milliseconds for the CM server and the unmodified (Linux) server.
type Fig7Result struct {
	Config  Fig7Config
	CMms    []float64
	Linuxms []float64
	// ImprovementPct is the reduction in completion time of the last request
	// relative to the first for the CM server (the paper reports ~40 %).
	ImprovementPct float64
	// FirstRequestPenaltyMs is the extra time the CM's first transfer takes
	// compared with Linux (the CM starts with a 1 MTU window, Linux with 2).
	FirstRequestPenaltyMs float64
}

// RunFig7 executes both server configurations.
func RunFig7(cfg Fig7Config) Fig7Result {
	cfg.fillDefaults()
	res := Fig7Result{Config: cfg}
	res.CMms = fig7Run(tcp.CCCM, cfg)
	res.Linuxms = fig7Run(tcp.CCNative, cfg)
	if len(res.CMms) > 1 && res.CMms[0] > 0 {
		last := res.CMms[len(res.CMms)-1]
		res.ImprovementPct = 100 * (res.CMms[0] - last) / res.CMms[0]
	}
	if len(res.CMms) > 0 && len(res.Linuxms) > 0 {
		res.FirstRequestPenaltyMs = res.CMms[0] - res.Linuxms[0]
	}
	return res
}

func fig7Run(cc tcp.CongestionControl, cfg Fig7Config) []float64 {
	w := newTestbed(vbnsPath(41), cc == tcp.CCCM)
	return fig7RunInTestbed(w, cc, cfg)
}

// newFileServer starts the Figure 7 file server on the testbed's sender host.
func newFileServer(w *testbed, serverCfg tcp.Config, fileSize int) (*app.FileServer, error) {
	return app.NewFileServer(w.sender, 80, fileSize, serverCfg)
}

// runFetches performs the sequential retrievals from the testbed's receiver
// host and returns the per-request completion times in milliseconds.
func runFetches(w *testbed, cfg Fig7Config) []float64 {
	client := app.NewFetchClient(w.rcvr, netsim.Addr{Host: "sender", Port: 80}, 200,
		tcp.Config{DelayedAck: true, RecvWindow: 1 << 20})
	var results []app.FetchResult
	client.RunSequential(cfg.Requests, cfg.Spacing, func(rs []app.FetchResult) { results = rs })
	w.sim.RunUntil(cfg.Deadline)
	if results == nil {
		results = client.Results()
	}
	out := make([]float64, 0, len(results))
	for _, r := range results {
		out = append(out, float64(r.Elapsed)/float64(time.Millisecond))
	}
	return out
}

// Table renders Figure 7.
func (r Fig7Result) Table() string {
	n := len(r.CMms)
	if len(r.Linuxms) > n {
		n = len(r.Linuxms)
	}
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		cmv, lxv := "-", "-"
		if i < len(r.CMms) {
			cmv = fmt.Sprintf("%.0f", r.CMms[i])
		}
		if i < len(r.Linuxms) {
			lxv = fmt.Sprintf("%.0f", r.Linuxms[i])
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), cmv, lxv})
	}
	return fmt.Sprintf("Figure 7: sequential %d KB fetches (CM improvement first->last: %.0f%%, CM first-request penalty: %.0f ms)\n",
		r.Config.FileSize/1024, r.ImprovementPct, r.FirstRequestPenaltyMs) +
		sweep.FormatTable([]string{"request#", "TCP/CM ms", "TCP/Linux ms"}, rows)
}
