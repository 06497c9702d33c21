// Package app contains the network-adaptive applications used to evaluate the
// Congestion Manager, following §3 of the paper:
//
//   - an application-level feedback protocol (UDP receivers acknowledge data
//     so senders can call cm_update without any receiver-side system changes),
//   - a streaming layered audio/video server in both the ALF
//     (request/callback) and rate-callback modes (§3.4, §3.5),
//   - the adaptive vat interactive-audio architecture with a policer and a
//     drop-from-head application buffer (§3.6),
//   - a web-like file server and sequential-fetch client used for the shared
//     congestion state experiment (Figure 7),
//   - an on/off constant-bit-rate cross-traffic source used to vary the
//     available bandwidth in the adaptation experiments (Figures 8-10).
package app

import (
	"sync"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/udp"
)

// Report is the application-level acknowledgement a receiver returns to the
// sender. All UDP-based CM clients must provide such feedback (§3.1: "all
// UDP-based clients must implement application level data acknowledgements").
//
// A report travels as a *Report in Datagram.App. The ones a Receiver sends are
// pooled and die with their datagram (netsim.PooledPayload): whoever is handed
// one reads it during the receive callback and keeps no reference.
type Report struct {
	// TotalPackets and TotalBytes are cumulative receive counters.
	TotalPackets int64
	TotalBytes   int64
	// HighestSeq is the highest sequence number seen so far.
	HighestSeq int64
	// EchoSentAt echoes the SentAt timestamp of the most recently received
	// datagram, giving the sender an RTT sample.
	EchoSentAt time.Duration

	// pooled marks reports drawn from reportPool; only those go back to it,
	// and clearing it on release makes a second release a no-op.
	pooled bool
}

// reportPool recycles reports like udp's datagram pool recycles the datagrams
// carrying them.
var reportPool = sync.Pool{New: func() any { return new(Report) }}

// ReleasePayload implements netsim.PooledPayload. A released report reads as
// all-negative counters, which no live report has.
func (r *Report) ReleasePayload() {
	if !r.pooled {
		return
	}
	*r = Report{TotalPackets: -1, TotalBytes: -1, HighestSeq: -1, EchoSentAt: -1}
	reportPool.Put(r)
}

// reportSize is the wire payload size of a feedback report.
const reportSize = 40

// FeedbackPolicy controls how often a receiver reports. The zero value
// acknowledges every packet immediately; Figure 10 uses delayed feedback
// (min(500 packets, 2000 ms)).
type FeedbackPolicy struct {
	// EveryPackets sends a report after this many unreported packets
	// (minimum 1).
	EveryPackets int
	// MaxDelay sends a report this long after the first unreported packet
	// even if EveryPackets has not been reached (0 disables the timer).
	MaxDelay time.Duration
}

func (p *FeedbackPolicy) fillDefaults() {
	if p.EveryPackets <= 0 {
		p.EveryPackets = 1
	}
}

// Receiver is the receiving half of a UDP-based adaptive application: it
// counts arriving data and returns Reports to the data's source according to the feedback policy. No kernel or CM
// support is needed on the receiving host, matching the paper's
// no-receiver-changes deployment story.
type Receiver struct {
	sock   *udp.Socket
	sched  *simtime.Scheduler
	policy FeedbackPolicy

	totalPackets int64
	totalBytes   int64
	highestSeq   int64
	lastEcho     time.Duration
	unreported   int
	reportTimer  simtime.EventTimer
	dataSource   netsim.Addr
	haveSource   bool

	reports int64
}

// NewReceiver binds a feedback-generating receiver to (host, port).
func NewReceiver(h *node.Host, port int, policy FeedbackPolicy) (*Receiver, error) {
	policy.fillDefaults()
	sock, err := udp.NewSocket(h, port)
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		sock:   sock,
		sched:  h.Clock(),
		policy: policy,
	}
	// Reports are transport control traffic; they are never charged to a CM
	// macroflow on the receiving host (which typically has no CM at all).
	sock.MarkControl()
	sock.OnReceive(r.onDatagram)
	r.reportTimer.Init(r.sched, simtime.KindWorkloadApp, fireReport, r)
	return r, nil
}

func fireReport(r any) { r.(*Receiver).flushReport() }

// Addr returns the receiver's bound address (where senders direct data).
func (r *Receiver) Addr() netsim.Addr { return r.sock.Local() }

// TotalBytes returns the cumulative bytes received.
func (r *Receiver) TotalBytes() int64 { return r.totalBytes }

// TotalPackets returns the cumulative packets received.
func (r *Receiver) TotalPackets() int64 { return r.totalPackets }

// ReportsSent returns the number of feedback reports transmitted.
func (r *Receiver) ReportsSent() int64 { return r.reports }

func (r *Receiver) onDatagram(from netsim.Addr, d *udp.Datagram) {
	if _, isReport := d.App.(*Report); isReport {
		return // a sender should not loop reports back, but be safe
	}
	r.totalPackets++
	r.totalBytes += int64(d.Size)
	if d.Seq > r.highestSeq {
		r.highestSeq = d.Seq
	}
	r.lastEcho = d.SentAt
	r.dataSource = from
	r.haveSource = true
	r.unreported++
	if r.unreported >= r.policy.EveryPackets {
		r.flushReport()
		return
	}
	if r.policy.MaxDelay > 0 && !r.reportTimer.Pending() {
		r.reportTimer.Reset(r.policy.MaxDelay)
	}
}

func (r *Receiver) flushReport() {
	if r.unreported == 0 || !r.haveSource {
		return
	}
	r.reportTimer.Stop()
	r.unreported = 0
	r.reports++
	rep := reportPool.Get().(*Report)
	*rep = Report{
		TotalPackets: r.totalPackets,
		TotalBytes:   r.totalBytes,
		HighestSeq:   r.highestSeq,
		EchoSentAt:   r.lastEcho,
		pooled:       true,
	}
	d := udp.NewDatagram()
	d.Size = reportSize
	d.App = rep
	r.sock.SendTo(r.dataSource, d)
}

// Close unbinds the receiver's socket.
func (r *Receiver) Close() {
	r.reportTimer.Stop()
	r.sock.Close()
}

// UpdateFunc is how SenderFeedback reports converted feedback; it matches the
// signature of cm.CM.Update / libcm.Lib.Update / udp.CCSocket.Update with the
// flow bound in.
type UpdateFunc func(nsent, nrecd int, mode cm.LossMode, rtt time.Duration)

// SenderFeedback converts the receiver's cumulative Reports into the
// incremental (nsent, nrecd, lossmode, rtt) arguments of cm_update. The
// sender records every transmission with OnSend and feeds arriving reports to
// OnReport.
type SenderFeedback struct {
	update UpdateFunc
	sched  *simtime.Scheduler

	// log of (seq, cumulative bytes sent including that seq), in send order.
	log          []sentRecord
	cumSent      int64
	coveredSent  int64
	reportedRecv int64

	// Statistics.
	updates    int64
	lossEvents int64
}

type sentRecord struct {
	seq int64
	cum int64
}

// NewSenderFeedback builds a feedback converter that calls update for every
// report.
func NewSenderFeedback(sched *simtime.Scheduler, update UpdateFunc) *SenderFeedback {
	if sched == nil || update == nil {
		panic("app: NewSenderFeedback requires a scheduler and an update function")
	}
	return &SenderFeedback{update: update, sched: sched}
}

// OnSend records a transmission of size bytes with the given sequence number.
func (f *SenderFeedback) OnSend(seq int64, size int) {
	f.cumSent += int64(size)
	f.log = append(f.log, sentRecord{seq: seq, cum: f.cumSent})
}

// Updates returns the number of cm_update calls issued.
func (f *SenderFeedback) Updates() int64 { return f.updates }

// LossEvents returns the number of reports that indicated loss.
func (f *SenderFeedback) LossEvents() int64 { return f.lossEvents }

// OnReport converts one receiver report into a cm_update call.
func (f *SenderFeedback) OnReport(rep Report) {
	// Bytes covered by this report: everything sent up to HighestSeq.
	covered := f.coveredSent
	done := 0
	for done < len(f.log) && f.log[done].seq <= rep.HighestSeq {
		covered = f.log[done].cum
		done++
	}
	// Slide the uncovered tail to the front instead of reslicing past the
	// head, so OnSend keeps appending into the same array.
	f.log = f.log[:copy(f.log, f.log[done:])]
	nsent := covered - f.coveredSent
	nrecd := rep.TotalBytes - f.reportedRecv
	if nrecd < 0 {
		nrecd = 0
	}
	if nsent < nrecd {
		// Reordering can make the receiver's counter run ahead of the
		// highest-sequence bookkeeping; never report more received than
		// sent.
		nsent = nrecd
	}
	f.coveredSent = f.coveredSent + nsent
	f.reportedRecv += nrecd

	mode := cm.NoLoss
	if nsent > nrecd {
		mode = cm.TransientLoss
		f.lossEvents++
	}
	var rtt time.Duration
	if rep.EchoSentAt > 0 {
		rtt = f.sched.Now() - rep.EchoSentAt
		if rtt < 0 {
			rtt = 0
		}
	}
	if nsent == 0 && nrecd == 0 {
		// Nothing new; still useful as an RTT sample if present.
		if rtt > 0 {
			f.update(0, 0, cm.NoLoss, rtt)
			f.updates++
		}
		return
	}
	f.updates++
	f.update(int(nsent), int(nrecd), mode, rtt)
}

// HandleDatagram is a convenience for senders: if the datagram carries a
// Report it is consumed and true is returned.
func (f *SenderFeedback) HandleDatagram(d *udp.Datagram) bool {
	rep, ok := d.App.(*Report)
	if !ok {
		return false
	}
	f.OnReport(*rep)
	return true
}
