package cm

import (
	"time"
)

// Feedback summarises one Update call as seen by the controller.
type Feedback struct {
	// SentBytes is the number of bytes covered by this feedback (delivered
	// or lost); they are no longer outstanding.
	SentBytes int
	// ReceivedBytes is the number of those bytes that reached the receiver.
	ReceivedBytes int
	// Mode is the congestion signal.
	Mode LossMode
	// RTT is a round-trip time sample, or zero if none was available.
	RTT time.Duration
	// AppLimited reports that the macroflow was using less than half of its
	// window when the feedback arrived. The controller does not grow the
	// window on application-limited feedback (RFC 2861-style congestion
	// window validation); otherwise a self-clocked sender such as the
	// rate-callback streaming application would inflate the window — and the
	// rate the CM advertises — far beyond anything the path has confirmed.
	AppLimited bool
}

// aimd is a macroflow's congestion controller: the window-based AIMD scheme
// with slow start and byte counting described in §2 and §4 of the paper. It
// mimics TCP's additive-increase / multiplicative-decrease behaviour so an
// ensemble of CM flows is no more aggressive than a single TCP connection.
// Its MTU, initial window and cap are the CM's Config.
type aimd struct {
	cfg      *Config
	cwnd     int // bytes
	ssthresh int // bytes
}

// newAIMD returns a controller in its start state: the initial window, slow
// starting toward the window cap.
func newAIMD(cfg *Config) aimd {
	c := aimd{cfg: cfg, cwnd: cfg.InitialWindowMTUs * cfg.MTU, ssthresh: 1 << 30}
	if cfg.MaxWindowBytes > 0 && c.ssthresh > cfg.MaxWindowBytes {
		c.ssthresh = cfg.MaxWindowBytes
	}
	return c
}

// window returns the congestion window in bytes, always at least one MTU.
func (c *aimd) window() int { return c.cwnd }

// inSlowStart reports whether the window is growing exponentially.
func (c *aimd) inSlowStart() bool { return c.cwnd < c.ssthresh }

func (c *aimd) clampWindow() {
	if c.cwnd < c.cfg.MTU {
		c.cwnd = c.cfg.MTU
	}
	if c.cfg.MaxWindowBytes > 0 && c.cwnd > c.cfg.MaxWindowBytes {
		c.cwnd = c.cfg.MaxWindowBytes
	}
}

// onFeedback applies an Update's effects to the window.
func (c *aimd) onFeedback(fb Feedback) {
	switch fb.Mode {
	case NoLoss:
		if fb.AppLimited {
			break
		}
		c.grow(fb.ReceivedBytes)
	case TransientLoss, ECNLoss:
		// Multiplicative decrease: halve the window, as TCP's fast recovery
		// does. ECN marks are treated like transient loss per RFC 2481.
		c.ssthresh = max(c.cwnd/2, 2*c.cfg.MTU)
		c.cwnd = c.ssthresh
		// Any bytes that did get through still open the (new, smaller)
		// window slightly in congestion avoidance; this keeps successive
		// transient signals from collapsing the window to the floor when
		// most data is actually arriving.
		c.growCongestionAvoidance(fb.ReceivedBytes)
	case PersistentLoss:
		// Timeout-equivalent: collapse to the initial window and slow start
		// toward half the old window.
		c.ssthresh = max(c.cwnd/2, 2*c.cfg.MTU)
		c.cwnd = c.cfg.InitialWindowMTUs * c.cfg.MTU
	}
	c.clampWindow()
}

// grow opens the window for acked bytes using byte counting (the CM counts
// the actual bytes acknowledged rather than assuming one MTU per ACK, one of
// the two differences from the Linux baseline noted in §4).
func (c *aimd) grow(ackedBytes int) {
	if ackedBytes <= 0 {
		return
	}
	if c.inSlowStart() {
		// Exponential growth: window grows by the number of bytes acked.
		c.cwnd += ackedBytes
		if c.cwnd > c.ssthresh {
			c.cwnd = c.ssthresh + (c.cwnd-c.ssthresh)/int(1+c.cwnd/c.cfg.MTU)
		}
		return
	}
	c.growCongestionAvoidance(ackedBytes)
}

// growCongestionAvoidance implements additive increase of roughly one MTU per
// window's worth of acknowledged bytes.
func (c *aimd) growCongestionAvoidance(ackedBytes int) {
	if ackedBytes <= 0 || c.cwnd <= 0 {
		return
	}
	c.cwnd += int(int64(c.cfg.MTU) * int64(ackedBytes) / int64(c.cwnd))
}

// onIdleRestart is the background task's fall-back when the macroflow has
// been starved of feedback while data was outstanding: back to the initial
// window, slow starting toward half the old one.
func (c *aimd) onIdleRestart() {
	c.ssthresh = max(c.cwnd/2, 2*c.cfg.MTU)
	c.cwnd = c.cfg.InitialWindowMTUs * c.cfg.MTU
	c.clampWindow()
}
