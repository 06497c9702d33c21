package app

import (
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/udp"
)

// VatConfig parameterises the adaptive vat architecture of §3.6 / Figure 2:
// a constant-bit-rate interactive audio source whose only adaptation knob is
// preemptively dropping packets to match the available bandwidth.
type VatConfig struct {
	// BitRate is the source rate in bits per second (vat's 64 kbps PCM).
	BitRate float64
	// FrameInterval is the audio framing interval (20 ms frames by default).
	FrameInterval time.Duration
	// AppBufferFrames bounds the application-level buffer between the
	// policer and the kernel.
	AppBufferFrames int
	// DropPolicy selects drop-from-head (vat's choice, to bound delay) or
	// drop-tail for the application buffer.
	DropPolicy netsim.DropPolicy
	// KernelQueueFrames bounds the congestion-controlled socket's queue.
	KernelQueueFrames int
}

func (c *VatConfig) fillDefaults() {
	if c.BitRate <= 0 {
		c.BitRate = 64_000
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 20 * time.Millisecond
	}
	if c.AppBufferFrames <= 0 {
		c.AppBufferFrames = 16
	}
	if c.KernelQueueFrames <= 0 {
		c.KernelQueueFrames = 4
	}
}

// FrameSize returns the audio frame payload size in bytes.
func (c *VatConfig) FrameSize() int {
	return int(c.BitRate * c.FrameInterval.Seconds() / 8)
}

// VatStats count what happened to every generated audio frame.
type VatStats struct {
	FramesGenerated int64
	PolicerDrops    int64 // long-term adaptation: preemptively dropped
	BufferDrops     int64 // drop-from-head (or tail) in the application buffer
	KernelDrops     int64 // kernel socket queue overflow (should stay 0)
	FramesSent      int64
	BytesSent       int64
	RateCallbacks   int64
}

// VatSource implements the adaptive vat sender: audio frames flow through a
// policer (long-term adaptation via preemptive dropping driven by CM rate
// callbacks), then an application-level buffer with configurable size and
// drop policy (short-term smoothing), and finally into the
// congestion-controlled UDP socket (the kernel buffer), which they enter only
// on demand.
type VatSource struct {
	cfg   VatConfig
	sched *simtime.Scheduler
	cmgr  *cm.CM
	cc    *udp.CCSocket
	fb    *SenderFeedback

	// Policer token bucket.
	policerRate   float64
	tokens        float64
	lastTokenFill time.Duration

	appBuf  []*udp.Datagram
	seq     int64
	running bool
	frameTk simtime.EventTimer

	stats VatStats
}

// NewVatSource creates the adaptive vat sender on host h, streaming to dst
// under the given Congestion Manager.
func NewVatSource(h *node.Host, cmgr *cm.CM, dst netsim.Addr, cfg VatConfig) (*VatSource, error) {
	cfg.fillDefaults()
	cc, err := udp.NewCCSocket(h, 0, dst, cmgr, cfg.KernelQueueFrames)
	if err != nil {
		return nil, err
	}
	v := &VatSource{
		cfg:   cfg,
		sched: h.Clock(),
		cmgr:  cmgr,
		cc:    cc,
	}
	v.fb = NewSenderFeedback(v.sched, func(nsent, nrecd int, mode cm.LossMode, rtt time.Duration) {
		cc.Update(nsent, nrecd, mode, rtt)
	})
	// Feedback reports arrive on the data socket.
	cc.Inner().OnReceive(func(_ netsim.Addr, d *udp.Datagram) { v.fb.HandleDatagram(d) })
	// Long-term adaptation: rate callbacks move the policer's admission rate.
	cmgr.Thresh(cc.Flow(), 1.1, 1.1)
	cmgr.RegisterUpdate(cc.Flow(), func(_ cm.FlowID, st cm.Status) {
		v.stats.RateCallbacks++
		v.setPolicerRate(st.Rate)
	})
	// The kernel buffer pulls from the application buffer on demand.
	cc.OnSpace(func() { v.fillKernel() })
	v.frameTk.Init(v.sched, simtime.KindWorkloadApp, fireFrame, v)
	// Start with whatever the CM currently estimates.
	if st, ok := cmgr.Query(cc.Flow()); ok {
		v.policerRate = st.Rate
	}
	v.lastTokenFill = h.Clock().Now()
	return v, nil
}

// Flow returns the CM flow of the underlying congestion-controlled socket.
func (v *VatSource) Flow() cm.FlowID { return v.cc.Flow() }

// Stats returns a copy of the frame accounting counters.
func (v *VatSource) Stats() VatStats { return v.stats }

// PolicerRate returns the current admission rate in bytes/second.
func (v *VatSource) PolicerRate() float64 { return v.policerRate }

// AppBufferDepth returns the current application buffer occupancy in frames.
func (v *VatSource) AppBufferDepth() int { return len(v.appBuf) }

// Start begins generating audio frames.
func (v *VatSource) Start() {
	if v.running {
		return
	}
	v.running = true
	v.frameTk.Reset(v.cfg.FrameInterval)
}

// Stop halts frame generation.
func (v *VatSource) Stop() {
	v.running = false
	v.frameTk.Stop()
}

// Close stops the source and releases the socket and flow.
func (v *VatSource) Close() {
	v.Stop()
	v.cc.Close()
}

func (v *VatSource) setPolicerRate(rate float64) {
	v.refillTokens()
	v.policerRate = rate
}

func (v *VatSource) refillTokens() {
	now := v.sched.Now()
	dt := (now - v.lastTokenFill).Seconds()
	if dt > 0 {
		v.tokens += v.policerRate * dt
		// Bound the bucket at two frame intervals' worth so idle periods do
		// not build an unbounded burst allowance.
		bucketCap := v.policerRate * v.cfg.FrameInterval.Seconds() * 2
		if bucketCap < float64(v.cfg.FrameSize()) {
			bucketCap = float64(v.cfg.FrameSize())
		}
		if v.tokens > bucketCap {
			v.tokens = bucketCap
		}
		v.lastTokenFill = now
	}
}

func fireFrame(v any) { v.(*VatSource).onFrame() }

// onFrame generates one CBR audio frame and pushes it through the policer and
// buffers.
func (v *VatSource) onFrame() {
	if !v.running {
		return
	}
	defer v.frameTk.Reset(v.cfg.FrameInterval)

	size := v.cfg.FrameSize()
	v.stats.FramesGenerated++
	v.seq++

	// Policer: admit only if the token bucket (filled at the CM-reported
	// rate) has room; otherwise drop preemptively.
	v.refillTokens()
	if v.tokens < float64(size) {
		v.stats.PolicerDrops++
		return
	}
	v.tokens -= float64(size)

	// Application buffer with configurable drop policy.
	if len(v.appBuf) >= v.cfg.AppBufferFrames {
		if v.cfg.DropPolicy == netsim.DropHead {
			v.appBuf[0].ReleasePayload()
			v.appBuf = v.appBuf[1:]
		} else {
			v.stats.BufferDrops++
			return
		}
		v.stats.BufferDrops++
	}
	frame := udp.NewDatagram()
	frame.Seq, frame.Size = v.seq, size
	v.appBuf = append(v.appBuf, frame)
	v.fillKernel()
}

// fillKernel moves frames from the application buffer into the kernel socket
// queue while there is room ("this buffer feeds into the kernel buffer
// on-demand as packets are available for transmission").
func (v *VatSource) fillKernel() {
	for len(v.appBuf) > 0 && v.cc.QueueLen() < v.cfg.KernelQueueFrames {
		frame := v.appBuf[0]
		v.appBuf = v.appBuf[1:]
		seq, size := frame.Seq, frame.Size // the socket owns frame once sent
		if !v.cc.Send(frame) {
			v.stats.KernelDrops++
			continue
		}
		v.fb.OnSend(seq, size)
		v.stats.FramesSent++
		v.stats.BytesSent += int64(size)
	}
}
