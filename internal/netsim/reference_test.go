package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
)

// ---------------------------------------------------------------------------
// The reference link: the two-event transmitter Link had before its tx-dones
// were reserved instead of scheduled and its hand-ups became one channel.
// Every serialisation schedules a tx-done event at its end, and that event
// schedules the hand-up and starts the next packet. It carries the three rules
// that fix what the two designs could otherwise disagree on (see the Link type
// comment and docs/PERF.md, "Links"), and nothing clever:
//
//  1. a packet offered at exactly txEnd with nothing queued finds the
//     transmitter free (Send runs the pending tx-done inline);
//  2. the tx-done event is stamped with the start and keyed (0, link key);
//  3. sent counters are read by the clock.
//
// No Gilbert-Elliott model and no taps: they sit in front of the transmitter
// and are the same code either way.
// ---------------------------------------------------------------------------

type refLink struct {
	cfg        LinkConfig
	sched      *simtime.Scheduler
	dst        Receiver
	queue      *Queue
	key        uint32
	deliverSeq uint32
	rng        *rand.Rand
	remote     RemoteDeliver

	busy, down     bool
	txStart, txEnd time.Duration
	txEv           *simtime.Event
	txPkt          *Packet
	txDelay        time.Duration
	stats          LinkStats
}

func newRefLink(sched *simtime.Scheduler, cfg LinkConfig) *refLink {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	qp := cfg.QueuePackets
	if qp == 0 && cfg.QueueBytes == 0 {
		qp = 100
	}
	r := &refLink{cfg: cfg, sched: sched, key: nameKey(cfg.Name), rng: rand.New(rand.NewSource(seed))}
	r.queue = NewQueue(qp, cfg.QueueBytes)
	return r
}

func (r *refLink) SetDestination(dst Receiver)       { r.dst = dst }
func (r *refLink) SetRemoteDeliver(fn RemoteDeliver) { r.remote = fn }
func (r *refLink) SetBandwidth(bw Bandwidth)         { r.cfg.Bandwidth = bw }
func (r *refLink) QueueStats() QueueStats            { return r.queue.Stats() }
func (r *refLink) QueueLen() int                     { return r.queue.Len() }
func (r *refLink) wire() (start, end time.Duration)  { return r.txStart, r.txEnd }

func (r *refLink) SetDown(down bool) {
	if r.down == down {
		return
	}
	r.down = down
	if !down && !r.busy {
		r.startTransmit()
	}
}

func (r *refLink) Stats() LinkStats {
	st := r.stats
	st.SentPackets, st.SentBytes = r.SentCounters()
	return st
}

func (r *refLink) Utilization() float64 {
	now := r.sched.Now()
	if now <= 0 {
		return 0
	}
	return float64(r.stats.BusyTime-max(0, r.txEnd-now)) / float64(now)
}

func (r *refLink) SentCounters() (int, int64) {
	p, b := r.stats.SentPackets, r.stats.SentBytes
	if r.busy && r.sched.Now() >= r.txEnd { // rule 3
		p++
		b += int64(r.txPkt.Size)
	}
	return p, b
}

func (r *refLink) Send(pkt *Packet) bool {
	if r.down {
		r.stats.DownDrops++
		pkt.Release()
		return false
	}
	if r.cfg.LossRate > 0 && r.rng.Float64() < r.cfg.LossRate {
		r.stats.BernoulliDrops++
		pkt.Release()
		return false
	}
	if victim := r.queue.Enqueue(pkt); victim != nil {
		r.stats.QueueDrops++
		victim.Release()
		if victim == pkt {
			return false
		}
	}
	if !r.busy {
		r.startTransmit()
	} else if r.queue.Len() == 1 && r.sched.Now() == r.txEnd { // rule 1
		r.txEv.Cancel()
		r.txDone(nil)
	}
	return true
}

func (r *refLink) startTransmit() {
	r.busy = false
	if r.down {
		return
	}
	pkt := r.queue.Dequeue()
	if pkt == nil {
		return
	}
	r.busy = true
	txTime := r.cfg.Bandwidth.TransmitTime(pkt.Size)
	r.stats.BusyTime += txTime
	r.txDelay = r.cfg.Delay
	now := r.sched.Now()
	r.txPkt, r.txStart, r.txEnd = pkt, now, now+txTime
	r.txEv = r.sched.InjectAt(r.txEnd, now, 0, r.key, simtime.KindPktTransmit, r.txDone, nil) // rule 2
}

// txDone fires when the packet on the wire has been serialised: it is sent,
// its hand-up is scheduled a propagation delay from now, and the next packet
// starts.
func (r *refLink) txDone(any) {
	pkt := r.txPkt
	r.stats.SentPackets++
	r.stats.SentBytes += int64(pkt.Size)
	r.deliverSeq++
	now := r.sched.Now()
	if r.remote != nil {
		r.remote(pkt, now+r.txDelay, now, r.deliverSeq)
	} else {
		r.sched.InjectAt(max(now+r.txDelay, now), now, r.key, r.deliverSeq, simtime.KindPktDeliver, func(any) {
			r.DeliverRemote(pkt, r.sched.Now())
		}, nil)
	}
	r.startTransmit()
}

func (r *refLink) DeliverRemote(pkt *Packet, now time.Duration) {
	r.stats.DeliveredAt = now
	r.stats.DeliveredOctets += int64(pkt.Size)
	r.dst.Receive(pkt)
}

func (l *Link) wire() (start, end time.Duration) {
	l.Settle()
	return l.txStart, l.txEnd
}

// ---------------------------------------------------------------------------
// Traces. A trace is a byte string: four bytes of link configuration, then
// operations, decoded one after another; a firing callback (a hand-up or a
// timer) decodes its own operations from the same cursor, so two links that
// hand up and fire in the same order see the same operations and two that do
// not produce different logs. Packets are 100..1000 bytes on an 8 Mbit/s wire,
// a microsecond a byte, and everything else moves in steps of 50 µs, so ties
// on the nanosecond are the rule; the operations that aim at txEnd and at
// txEnd ± 1 ns make the rest.
// ---------------------------------------------------------------------------

type testLink interface {
	Send(*Packet) bool
	SetDown(bool)
	SetBandwidth(Bandwidth)
	SetDestination(Receiver)
	SetRemoteDeliver(RemoteDeliver)
	DeliverRemote(pkt *Packet, now time.Duration)
	Stats() LinkStats
	QueueStats() QueueStats
	QueueLen() int
	SentCounters() (int, int64)
	Utilization() float64
	// wire brackets the serialisation of the packet that went on the wire
	// last.
	wire() (start, end time.Duration)
}

// linkRec is the observable state after one operation or firing.
type linkRec struct {
	op    string
	now   time.Duration
	pkt   int  // packet id of a hand-up, else the operation's argument
	down  bool // the state a set-down set
	stats LinkStats
	queue QueueStats
	qlen  int
	sentP int
	sentB int64
	util  float64
}

type linkInterp struct {
	data   []byte
	pos    int
	sched  *simtime.Scheduler
	l      testLink
	down   bool
	nextID int
	depth  int // callbacks on the stack
	log    []linkRec
	// sparse leaves the link unread by the records made inside callbacks,
	// so that it is not settled at every point of the firing order and its
	// own operations must settle it; no event is then keyed to tie a tx-done
	// on everything but the seq (see Scheduler.Fired). A link with the remote
	// hand-off is never sparse: it is settled at every point, as sharded
	// execution settles it at every barrier, which here, with no lookahead,
	// has to be every point.
	sparse bool
	// handUps and fired count the hand-ups and the interpreter's own events
	// (timers and injections) that ran; the link's own events are the rest.
	handUps, fired uint64
}

const (
	linkTick = 50 * time.Microsecond
	wireRate = 8 * Mbps // one byte per microsecond
)

var (
	traceSizes  = [4]int{100, 250, 500, 1000}
	traceRates  = [4]Bandwidth{wireRate, 0, wireRate / 2, wireRate * 2}
	traceDelays = [4]time.Duration{300 * time.Microsecond, 0, 100 * time.Microsecond, time.Millisecond}
)

func (in *linkInterp) byte() int {
	if in.pos >= len(in.data) {
		return 0
	}
	in.pos++
	return int(in.data[in.pos-1])
}

func (in *linkInterp) note(op string, pkt int, down bool) {
	r := linkRec{op: op, now: in.sched.Now(), pkt: pkt, down: down}
	if !in.sparse || in.depth == 0 {
		// Each reader settles the link on its own, so the one that reads
		// first takes turns.
		reads := []func(){
			func() { r.sentP, r.sentB = in.l.SentCounters() },
			func() { r.stats = in.l.Stats() },
			func() { r.queue = in.l.QueueStats() },
			func() { r.qlen = in.l.QueueLen() },
			func() { r.util = in.l.Utilization() },
		}
		for i := range reads {
			reads[(len(in.log)+i)%len(reads)]()
		}
	}
	in.log = append(in.log, r)
}

func (in *linkInterp) send(size int) {
	in.nextID++
	p := NewPacket()
	p.Size, p.Payload, p.TTL = size, in.nextID, 2
	in.l.Send(p)
	in.note("send", in.nextID, false)
}

// callback runs a few operations from inside a firing event.
func (in *linkInterp) callback() {
	for n := in.byte() % 3; n > 0 && in.pos < len(in.data); n-- {
		in.op()
	}
}

// Receive is the link's destination. It may forward the packet onto the same
// link again (a router does that with the very packet it was handed), twice at
// most, then runs operations of its own.
func (in *linkInterp) Receive(pkt *Packet) {
	in.handUps++
	in.depth++
	defer func() { in.depth-- }()
	id := pkt.Payload.(int)
	in.note("hand-up", id, false)
	if pkt.TTL > 0 && in.pos < len(in.data) && in.byte()%4 == 0 {
		pkt.TTL--
		in.l.Send(pkt) // the link releases what it drops
		in.note("forward", id, false)
	} else {
		pkt.Release()
	}
	in.callback()
}

// timer schedules an unkeyed event at t that sends a packet, if size > 0, and
// then runs operations of its own.
func (in *linkInterp) timer(t time.Duration, size int) {
	in.sched.At(t, func() { in.fire("timer", size) })
}

// fire is the callback of the interpreter's own events: it sends a packet, if
// size > 0, and then runs operations of its own.
func (in *linkInterp) fire(op string, size int) {
	in.fired++
	in.depth++
	defer func() { in.depth-- }()
	in.note(op, size, false)
	if size > 0 {
		in.send(size)
	}
	in.callback()
}

// wireEnd is when the packet that went on the wire last leaves it.
func (in *linkInterp) wireEnd() time.Duration {
	_, end := in.l.wire()
	return end
}

func (in *linkInterp) op() {
	now := in.sched.Now()
	switch code := in.byte() % 16; code {
	case 0, 1, 2:
		in.send(traceSizes[in.byte()%4])
	case 3:
		// A same-instant burst, often longer than the queue.
		size := traceSizes[in.byte()%4]
		for n := 2 + in.byte()%6; n > 0; n-- {
			in.send(size)
		}
	case 4, 5:
		// A sender aiming at the end of the current serialisation, or a
		// nanosecond either side of it.
		in.timer(in.wireEnd()+time.Duration(in.byte()%3-1), traceSizes[in.byte()%4])
		in.note("timer-at-txend", 0, false)
	case 6:
		// A bystander at the same instant: it competes with the tx-done for
		// its place in the firing order and then does whatever comes next.
		in.timer(in.wireEnd(), 0)
		in.note("bystander-at-txend", 0, false)
	case 7:
		in.timer(now+time.Duration(in.byte()%8)*linkTick, traceSizes[in.byte()%4]*(in.byte()%2))
		in.note("timer", 0, false)
	case 8:
		in.down = !in.down
		in.l.SetDown(in.down)
		in.note("set-down", 0, in.down)
	case 9:
		i := in.byte() % 4
		in.l.SetBandwidth(traceRates[i])
		in.note("set-bandwidth", i, false)
	case 10, 11:
		if in.depth == 0 {
			in.sched.RunUntil(now + time.Duration(in.byte()%8)*linkTick)
			in.note("run", 0, false)
		}
	case 12:
		// Stop exactly where the wire frees, or a nanosecond either side: the
		// operations that follow are offers and changes at that instant.
		if t := in.wireEnd() + time.Duration(in.byte()%3-1); in.depth == 0 && t >= now {
			in.sched.RunUntil(t)
			in.note("run-to-txend", 0, false)
		}
	case 13:
		if in.depth == 0 {
			in.sched.RunUntilBefore(in.wireEnd())
			in.note("run-before-txend", 0, false)
		}
	case 14:
		// A barrier where the wire frees: every event before it has run and
		// none at it, the tx-done included, when an offer, a change of state
		// and an observation arrive.
		if t := in.wireEnd(); in.depth == 0 && t >= now {
			in.sched.RunUntilBefore(t)
			in.sched.AdvanceTo(t)
			in.note("barrier-at-txend", 0, false)
			in.send(traceSizes[in.byte()%4])
			if in.byte()%2 == 0 {
				in.down = !in.down
				in.l.SetDown(in.down)
				in.note("set-down", 0, in.down)
			}
			i := in.byte() % 4
			in.l.SetBandwidth(traceRates[i])
			in.note("set-bandwidth", i, false)
		}
	case 15:
		// An event keyed like a tx-done, (0, link key ± 1), at the end of the
		// serialisation and stamped with its start ± 1 ns: with (0, 0) it
		// ties the tx-done on everything but the seq.
		start, end := in.l.wire()
		stamp := start + time.Duration(in.byte()%3-1)
		d := in.byte()%3 - 1
		if in.sparse && d == 0 {
			d = 1
		}
		sub := nameKey(linkName) + uint32(d)
		size := traceSizes[in.byte()%4] * (in.byte() % 2)
		if end >= now {
			in.sched.InjectAt(end, stamp, 0, sub, simtime.KindOther, func(any) { in.fire("keyed-at-txend", size) }, nil)
			in.note("keyed-at-txend", 0, false)
		}
	}
}

const linkName = "ref"

// runLinkTrace applies a trace to one link on a scheduler of its own and
// returns the log, plus the number of events the link fired beyond one per
// hand-up.
func runLinkTrace(data []byte, build func(*simtime.Scheduler, LinkConfig) testLink) ([]linkRec, uint64) {
	in := &linkInterp{data: data, sched: simtime.NewScheduler()}
	c0, c1, c2, c3 := in.byte(), in.byte(), in.byte(), in.byte()
	cfg := LinkConfig{
		Name:         linkName,
		Bandwidth:    traceRates[c0%4],
		Delay:        traceDelays[c0/4%4],
		QueuePackets: 1 + c1%4,
		LossRate:     0.2 * float64(c2%2),
		Seed:         int64(c3),
	}
	in.sparse = c2/2%2 == 1 && c3%2 == 0
	in.l = build(in.sched, cfg)
	in.l.SetDestination(in)
	if c3%2 == 1 {
		// The sharded hand-off, on one scheduler: whenever the link hands a
		// packet over, inject its delivery with the stamp and keys it gave.
		key := nameKey(cfg.Name)
		in.l.SetRemoteDeliver(func(pkt *Packet, arrive, sent time.Duration, seq uint32) {
			in.sched.InjectAt(arrive, sent, key, seq, simtime.KindPktDeliver, func(any) {
				in.l.DeliverRemote(pkt, in.sched.Now())
			}, nil)
		})
	}
	for in.pos < len(in.data) {
		in.op()
	}
	if in.down {
		in.l.SetDown(false)
	}
	in.sched.Run()
	in.note("drained", 0, false)
	return in.log, in.sched.Executed() - in.fired - in.handUps
}

// checkLinkTrace is the differential check shared by the seeded test and the
// fuzz target.
func checkLinkTrace(t testing.TB, data []byte) {
	t.Helper()
	got, extra := runLinkTrace(data, func(s *simtime.Scheduler, cfg LinkConfig) testLink { return NewLink(s, cfg, nil) })
	want, _ := runLinkTrace(data, func(s *simtime.Scheduler, cfg LinkConfig) testLink { return newRefLink(s, cfg) })
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			var g any = "nothing"
			if i < len(got) {
				g = fmt.Sprintf("%+v", got[i])
			}
			t.Fatalf("trace %x: record %d:\n    Link      %v\n    reference %+v", data, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("trace %x: Link logged %d records, reference %d", data, len(got), len(want))
	}
	if extra != 0 {
		t.Fatalf("trace %x: Link fired %d events beyond one per hand-up", data, extra)
	}
}

// TestLinkMatchesReference holds Link to the two-event reference over seeded
// random traces. Hand-made mutants it was seen to catch, each also caught by
// the seed corpus alone: Scheduler.Fired counting a tx-done reserved inside
// the running callback as fired; AdvanceTo or RunUntilBefore recorded as
// "through t" instead of "before t"; RunUntil not recorded; Fired ignoring
// the stamp; the scheduler keeping only its latest point; SetBandwidth,
// SetDown or Send not settling first; a hand-up that empties the in-flight
// list not settling; SetDown(false) starting a held packet at txEnd instead
// of now; a settled start taking a fresh seq; the tx-done unkeyed, or stamped
// txEnd; `>` for `>=` in Send's free test.
func TestLinkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trace := 0; trace < 2000; trace++ {
		data := make([]byte, 8+rng.Intn(200))
		rng.Read(data)
		checkLinkTrace(t, data)
	}
}

// FuzzLinkOps is the same differential check over fuzzer-chosen traces. The
// seed corpus lives in testdata/fuzz/FuzzLinkOps.
func FuzzLinkOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("trace longer than any schedule worth shrinking")
		}
		checkLinkTrace(t, data)
	})
}
