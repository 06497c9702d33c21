package app

import (
	"fmt"
	"time"

	"repro/internal/cm"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/udp"
)

// LayeredMode selects which CM API the streaming server uses.
type LayeredMode int

const (
	// ModeALF is the request/callback API (§3.5): the server asks the CM for
	// permission before every packet, queries the current rate inside the
	// callback, picks the layer, and sends as fast as the CM allows.
	ModeALF LayeredMode = iota
	// ModeRateCallback is the rate-callback API (§3.4): the server runs its
	// own clocked send loop at the current layer's rate and is notified only
	// when the CM's rate estimate crosses the registered thresholds.
	ModeRateCallback
)

// String names the mode.
func (m LayeredMode) String() string {
	if m == ModeALF {
		return "alf"
	}
	return "rate-callback"
}

// LayeredConfig parameterises the layered streaming server.
type LayeredConfig struct {
	Mode LayeredMode
	// Layers are the cumulative encoding rates available, in bytes/second,
	// ascending. The server always transmits at exactly one layer.
	Layers []float64
	// PacketSize is the payload size of each media packet.
	PacketSize int
	// ThreshDown and ThreshUp are the cm_thresh factors for rate callbacks.
	ThreshDown, ThreshUp float64
	// Headroom scales the CM-reported rate before choosing a layer; 1.0 uses
	// it directly, lower values are more conservative.
	Headroom float64
	// PollInterval is how often the rate-callback server additionally polls
	// the CM (cm_query) from its own clocked loop, the paper's "poll the CM
	// on their own schedule" option. Threshold callbacks alone cannot tell a
	// self-clocked sender that unused headroom has accumulated, because the
	// CM stops raising its estimate for an application-limited flow.
	PollInterval time.Duration
	// GrantWatchdog is the ALF-mode stall detector: if no grant arrives for
	// this long while streaming, the server re-requests. The request/callback
	// chain ("send, then request again") breaks permanently if one
	// cmapp_send notification is dropped on the way to the application, so a
	// robust ALF client needs its own timer. A CM restart does not need it:
	// the restart handler re-requests. Default 1s.
	GrantWatchdog time.Duration
}

func (c *LayeredConfig) fillDefaults() {
	if len(c.Layers) == 0 {
		// Four layers spanning the range in the paper's Figures 8 and 9
		// (roughly 0.3 to 2.5 MB/s).
		c.Layers = []float64{312_500, 625_000, 1_250_000, 2_500_000}
	}
	if c.PacketSize <= 0 {
		c.PacketSize = 1000
	}
	if c.ThreshDown <= 1 {
		c.ThreshDown = 1.5
	}
	if c.ThreshUp <= 1 {
		c.ThreshUp = 1.5
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.0
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Second
	}
	if c.GrantWatchdog <= 0 {
		c.GrantWatchdog = time.Second
	}
}

// LayeredStats are counters for a layered server.
type LayeredStats struct {
	PacketsSent   int64
	BytesSent     int64
	LayerSwitches int64
	// RateReports counts the rates the server adapted to: one per query
	// answer or rate callback. RateCallbacks counts the callbacks alone.
	RateReports     int64
	RateCallbacks   int64
	GrantsReceived  int64
	FeedbackReports int64
	// Restarts counts CM restarts the server re-synced from (flow re-opened,
	// callbacks re-registered). WatchdogFires counts ALF stall recoveries:
	// grants whose notification was dropped, where the watchdog re-requested.
	Restarts      int64
	WatchdogFires int64
}

// LayeredServer is the streaming layered audio/video server of §3.4/§3.5. It
// is a user-space CM client: all CM interaction goes through libcm. It keeps
// counters (Stats) and gauges (Layer, ReportedRate), not traces: a caller
// that wants a time series samples them.
type LayeredServer struct {
	lib   *libcm.Lib
	sock  *udp.Socket
	sched *simtime.Scheduler
	dst   netsim.Addr
	cfg   LayeredConfig

	flow cm.FlowID
	fb   *SenderFeedback

	layer         int
	seq           int64
	running       bool
	sendTimer     simtime.EventTimer
	pollTimer     simtime.EventTimer
	watchdogTimer simtime.EventTimer

	reported float64
	stats    LayeredStats
}

// NewLayeredServer creates a layered streaming server on host h sending to
// dst through the given libcm instance.
func NewLayeredServer(h *node.Host, lib *libcm.Lib, dst netsim.Addr, cfg LayeredConfig) (*LayeredServer, error) {
	if lib == nil {
		return nil, fmt.Errorf("app: layered server requires a libcm instance")
	}
	cfg.fillDefaults()
	sock, err := udp.NewSocket(h, 0)
	if err != nil {
		return nil, err
	}
	s := &LayeredServer{
		lib:   lib,
		sock:  sock,
		sched: h.Clock(),
		dst:   dst,
		cfg:   cfg,
	}
	// Layered applications "open their usual UDP socket, and call cm_open()
	// to obtain a control socket" (§3.4).
	s.flow = lib.Open(netsim.ProtoUDP, sock.Local(), dst)
	sock.SetCMFlow(s.flow)
	s.fb = NewSenderFeedback(s.sched, func(nsent, nrecd int, mode cm.LossMode, rtt time.Duration) {
		s.lib.Update(s.flow, nsent, nrecd, mode, rtt)
	})
	// Feedback reports come back to the data socket.
	sock.OnReceive(func(_ netsim.Addr, d *udp.Datagram) {
		if s.fb.HandleDatagram(d) {
			s.stats.FeedbackReports++
		}
	})
	s.sendTimer.Init(s.sched, simtime.KindWorkloadApp, fireSend, s)
	s.pollTimer.Init(s.sched, simtime.KindWorkloadApp, firePoll, s)
	s.watchdogTimer.Init(s.sched, simtime.KindWorkloadApp, fireWatchdog, s)
	lib.SetRestartHandler(s.onCMRestart)
	return s, nil
}

func fireSend(s any)     { s.(*LayeredServer).onSendTimer() }
func firePoll(s any)     { s.(*LayeredServer).onPoll() }
func fireWatchdog(s any) { s.(*LayeredServer).onWatchdog() }

// Flow returns the server's CM flow.
func (s *LayeredServer) Flow() cm.FlowID { return s.flow }

// Layer returns the index of the layer currently being transmitted.
func (s *LayeredServer) Layer() int { return s.layer }

// Stats returns a copy of the server counters.
func (s *LayeredServer) Stats() LayeredStats { return s.stats }

// ReportedRate returns the CM-reported rate, in bytes/second, that the
// server last adapted to (0 before the first report).
func (s *LayeredServer) ReportedRate() float64 { return s.reported }

// Start begins streaming.
func (s *LayeredServer) Start() {
	if s.running {
		return
	}
	s.running = true
	switch s.cfg.Mode {
	case ModeALF:
		s.lib.RegisterSend(s.flow, s.onGrant)
		s.lib.Request(s.flow)
		s.watchdogTimer.Reset(s.cfg.GrantWatchdog)
	case ModeRateCallback:
		s.lib.Thresh(s.flow, s.cfg.ThreshDown, s.cfg.ThreshUp)
		s.lib.RegisterUpdate(s.flow, s.onRateCallback)
		if st, ok := s.lib.Query(s.flow); ok {
			s.pickLayer(st.Rate)
		}
		s.scheduleNextFrame()
		s.pollTimer.Reset(s.cfg.PollInterval)
	}
}

// Stop halts streaming (the flow stays open so it can be restarted).
func (s *LayeredServer) Stop() {
	s.running = false
	s.sendTimer.Stop()
	s.pollTimer.Stop()
	s.watchdogTimer.Stop()
}

// Close stops the server and releases its flow and socket.
func (s *LayeredServer) Close() {
	s.Stop()
	s.lib.Close(s.flow)
	s.sock.Close()
}

// pickLayer adapts to a CM-reported rate: it chooses the highest layer whose
// rate fits within it (scaled by headroom) and counts reports and switches.
func (s *LayeredServer) pickLayer(rate float64) {
	s.reported = rate
	s.stats.RateReports++
	budget := rate * s.cfg.Headroom
	chosen := 0
	for i, r := range s.cfg.Layers {
		if r <= budget {
			chosen = i
		}
	}
	if chosen != s.layer {
		s.layer = chosen
		s.stats.LayerSwitches++
	}
}

func (s *LayeredServer) sendPacket() {
	s.seq++
	d := udp.NewDatagram()
	d.Seq, d.Size = s.seq, s.cfg.PacketSize
	s.sock.SendTo(s.dst, d)
	s.fb.OnSend(s.seq, s.cfg.PacketSize)
	s.stats.PacketsSent++
	s.stats.BytesSent += int64(s.cfg.PacketSize)
}

// onGrant is the ALF-mode cmapp_send callback: query, adapt, transmit, and
// immediately request the next opportunity ("sends packets as rapidly as
// possible to allow its client to buffer more data").
func (s *LayeredServer) onGrant(_ cm.FlowID) {
	if !s.running {
		s.lib.Notify(s.flow, 0)
		return
	}
	s.stats.GrantsReceived++
	s.watchdogTimer.Reset(s.cfg.GrantWatchdog)
	if st, ok := s.lib.Query(s.flow); ok {
		s.pickLayer(st.Rate)
	}
	s.sendPacket()
	s.lib.Request(s.flow)
}

// onWatchdog fires when an ALF server has streamed nothing for GrantWatchdog:
// the outstanding request's grant notification was dropped, so re-request
// rather than stay silent forever. The extra request is safe —
// at worst an unexpected grant is declined via cm_notify(0).
func (s *LayeredServer) onWatchdog() {
	if !s.running || s.cfg.Mode != ModeALF {
		return
	}
	s.stats.WatchdogFires++
	s.lib.Request(s.flow)
	s.watchdogTimer.Reset(s.cfg.GrantWatchdog)
}

// onCMRestart is the libcm re-sync hook, run at the CM restart itself: the CM
// lost our flow, so open a fresh one and re-register per the current mode.
// Streaming state (layer, sequence numbers, feedback tracking) survives;
// congestion state restarts from the initial window.
func (s *LayeredServer) onCMRestart() {
	s.stats.Restarts++
	s.flow = s.lib.Open(netsim.ProtoUDP, s.sock.Local(), s.dst)
	s.sock.SetCMFlow(s.flow)
	switch s.cfg.Mode {
	case ModeALF:
		s.lib.RegisterSend(s.flow, s.onGrant)
		if s.running {
			s.lib.Request(s.flow)
			s.watchdogTimer.Reset(s.cfg.GrantWatchdog)
		}
	case ModeRateCallback:
		s.lib.Thresh(s.flow, s.cfg.ThreshDown, s.cfg.ThreshUp)
		s.lib.RegisterUpdate(s.flow, s.onRateCallback)
	}
}

// onRateCallback is the rate-callback-mode cmapp_update callback.
func (s *LayeredServer) onRateCallback(_ cm.FlowID, st cm.Status) {
	s.stats.RateCallbacks++
	s.pickLayer(st.Rate)
}

// onPoll is the slow polling loop of the rate-callback mode: threshold
// callbacks report significant changes promptly, but only a query can reveal
// that the CM would now allow a higher layer after the application has been
// limiting itself.
func (s *LayeredServer) onPoll() {
	if !s.running {
		return
	}
	if st, ok := s.lib.Query(s.flow); ok {
		s.pickLayer(st.Rate)
	}
	s.pollTimer.Reset(s.cfg.PollInterval)
}

// onSendTimer is the self-clocked transmission loop of the rate-callback
// mode: one packet every PacketSize/layerRate seconds.
func (s *LayeredServer) onSendTimer() {
	if !s.running {
		return
	}
	s.sendPacket()
	s.scheduleNextFrame()
}

func (s *LayeredServer) scheduleNextFrame() {
	rate := s.cfg.Layers[s.layer]
	if rate <= 0 {
		rate = s.cfg.Layers[0]
	}
	interval := simtime.FromSeconds(float64(s.cfg.PacketSize) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	s.sendTimer.Reset(interval)
}
