package netsim

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"repro/internal/simtime"
)

// Bandwidth expresses link capacity in bits per second.
type Bandwidth float64

// Convenience bandwidth units.
const (
	Kbps Bandwidth = 1e3
	Mbps Bandwidth = 1e6
	Gbps Bandwidth = 1e9
)

// BytesPerSecond converts the bandwidth to bytes per second.
func (b Bandwidth) BytesPerSecond() float64 { return float64(b) / 8 }

// String formats the bandwidth in a human-readable unit.
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(b)/float64(Gbps))
	case b >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(b)/float64(Mbps))
	case b >= Kbps:
		return fmt.Sprintf("%.3gKbps", float64(b)/float64(Kbps))
	default:
		return fmt.Sprintf("%.3gbps", float64(b))
	}
}

// TransmitTime returns the serialisation delay of n bytes at this bandwidth.
func (b Bandwidth) TransmitTime(n int) time.Duration {
	if b <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(n) * 8 / float64(b))
}

// LinkConfig describes one unidirectional shaped channel — the simulator's
// equivalent of a Dummynet pipe on the paper's testbed.
type LinkConfig struct {
	// Name is used in diagnostics and statistics.
	Name string `json:"name,omitempty"`
	// Bandwidth is the serialisation rate. Zero means infinitely fast.
	Bandwidth Bandwidth `json:"bandwidth,omitempty"`
	// Delay is the one-way propagation delay added after serialisation.
	Delay time.Duration `json:"delay,omitempty"`
	// QueuePackets / QueueBytes bound the drop-tail buffer in front of the
	// link. If both are zero a default of 100 packets is used.
	QueuePackets int `json:"queue_packets,omitempty"`
	QueueBytes   int `json:"queue_bytes,omitempty"`
	// LossRate is an independent Bernoulli drop probability applied to each
	// packet before queueing — the random loss knob used for Figure 3.
	LossRate float64 `json:"loss_rate,omitempty"`
	// Gilbert enables the two-state bursty loss model alongside the Bernoulli
	// LossRate knob. It advances on every offered packet (it is sampled
	// before the Bernoulli draw). Nil disables it.
	Gilbert *GilbertElliott `json:"gilbert,omitempty"`
	// Seed seeds the link's private random source so loss patterns are
	// reproducible. A zero seed uses 1.
	Seed int64 `json:"seed,omitempty"`
}

// Validate reports the first field out of range: a negative bandwidth, delay
// or queue limit, a loss rate outside [0, 1], or an invalid Gilbert-Elliott
// model.
func (c LinkConfig) Validate() error {
	if !(c.Bandwidth >= 0) {
		return fmt.Errorf("bandwidth %v negative", float64(c.Bandwidth))
	}
	if c.Delay < 0 {
		return fmt.Errorf("delay %v negative", c.Delay)
	}
	if c.QueuePackets < 0 || c.QueueBytes < 0 {
		return fmt.Errorf("negative queue limit (queue_packets %d, queue_bytes %d)", c.QueuePackets, c.QueueBytes)
	}
	if !(c.LossRate >= 0 && c.LossRate <= 1) {
		return fmt.Errorf("loss_rate %v out of [0,1]", c.LossRate)
	}
	if c.Gilbert != nil {
		return c.Gilbert.Validate()
	}
	return nil
}

// LinkStats are cumulative counters for a link.
type LinkStats struct {
	SentPackets int
	SentBytes   int64
	// BernoulliDrops counts independent LossRate drops; BurstDrops counts
	// drops by the Gilbert-Elliott model.
	BernoulliDrops int
	BurstDrops     int
	// DownDrops counts packets offered while the link was administratively
	// down (a scheduled outage).
	DownDrops  int
	QueueDrops int
	// GEGoodPackets / GEBadPackets count packet arrivals per Gilbert-Elliott
	// state (the model's state occupancy, measured in offered packets);
	// GETransitions counts state flips.
	GEGoodPackets   int
	GEBadPackets    int
	GETransitions   int
	DeliveredAt     time.Duration // virtual time of the most recent delivery
	BusyTime        time.Duration // cumulative serialisation time
	DeliveredOctets int64
}

// Link is a unidirectional channel with finite bandwidth, propagation delay, a
// drop-tail queue and optional random loss. Packets presented with Send are
// queued, serialised in FIFO order at the link rate, and delivered to the
// destination Receiver after the propagation delay.
//
// A direction is a FIFO channel: the packets it has accepted, on the wire or
// propagating (the in-flight list) and then waiting for the wire (the
// queue), in one order. It costs the scheduler one event per packet: its
// hand-up. Only the head of the in-flight list has one pending, keyed by the
// head's (arrival, end of serialisation, link key, delivery number); all four
// grow along the channel, so the head is the only one that could be the
// scheduler's earliest. Firing it hands the head up and keys the next.
//
// The transmitter has no event at all. The end of each serialisation is a
// tx-done event that is never inserted, only reserved (Scheduler.Reserve): it is
// keyed (txEnd, txStart, 0, link key), which places it among the events of its
// instant after every unkeyed one inserted before the serialisation began and
// before every hand-up, wherever it would have been armed from, and its
// firing starts the next waiting packet. Whoever reads the transmitter —
// Send's drop-tail admission, the counters, SetDown, SetBandwidth, a hand-up
// that finds the in-flight list empty — first settles it: it asks the
// scheduler (Scheduler.Fired) whether that tx-done has fired by the current
// point of the order and, while it has, starts the next packet at its
// instant, back to back. A packet starts as a tx-done would have started it,
// so it is timed with the bandwidth of that instant, and a change of
// bandwidth re-times the unstarted tail by construction. The transmitter is
//
//   - free (nothing waits and Now >= txEnd): a Send starts serialising at
//     once, so a packet offered at exactly txEnd with nothing queued finds it
//     free;
//   - busy (Now < txEnd, or packets wait): a Send queues, behind the ones
//     waiting, and starts when the tx-done ahead of it fires.
//
// Links are mutable mid-run: the dynamics subsystem may take a link down,
// bring it back up, or swap its bandwidth while packets are in flight. A
// bandwidth change applies to packets serialised after it; packets already
// serialising or propagating complete under the old one (their hand-ups are
// keyed already). While a link is down, newly offered packets are dropped and
// queued packets are held; the queue resumes draining when the link comes back
// up.
type Link struct {
	cfg   LinkConfig
	sched *simtime.Scheduler
	dst   Receiver
	// queue holds the packets waiting for the wire, created by the first Send:
	// in an internet-scale topology almost every direction never carries a
	// packet. A nil queue reads as an empty one (QueueLen, QueueStats).
	queue *Queue
	// key orders this link's delivery events against same-instant deliveries
	// from other links (see SortKey). Derived from the direction name at
	// construction so serial and sharded builds agree on it.
	key uint32
	// deliverSeq counts the packets handed up (or, on a cross-shard
	// direction, handed off): the delivery number of the in-flight head is one
	// more. It is the hand-up's sub-sequence tie-break, so multiple
	// same-instant deliveries of one direction order by an explicit,
	// shard-independent number instead of scheduler insertion order. uint32
	// wrap after ~4.3e9 deliveries on one direction could misorder only a pair
	// tied at the same instant across the wrap — beyond any run this simulator
	// performs.
	deliverSeq uint32
	// rng is the link's private random source for the loss draws, created
	// lazily by random(): a rand.Rand source is ~5 KB, and in an
	// internet-scale topology almost every link is lossless and never draws.
	// Laziness is invisible to determinism — the seed is fixed at
	// construction, so the stream is identical whenever it is first used.
	rng *rand.Rand

	// gilbert is the installed bursty-loss model (nil = disabled); geBad is
	// its current state.
	gilbert *GilbertElliott

	// The transmitter, as of its last settle: txStart and txEnd bracket the
	// serialisation of the most recent packet, txSize is its wire size and
	// txSeq the seq of its tx-done (see the type comment).
	txStart, txEnd time.Duration
	txSeq          uint64
	txSize         int32
	geBad, down    bool
	// fly and flyTail are the in-flight list, linked through Packet.next;
	// fly's hand-up is the pending event. A cross-shard direction hands its
	// packets off as they start and keeps none.
	fly, flyTail *Packet
	stats        LinkStats

	// tap, when non-nil, observes every packet that is delivered (after
	// loss and queueing). Experiments use taps to trace rates.
	tap func(pkt *Packet)
	// dropTap observes dropped packets (random or queue drops).
	dropTap func(pkt *Packet, reason string)
	// sendTap observes every packet accepted into the transmit queue; the
	// flight recorder uses it for enqueue events. It runs on the sending
	// side, unlike tap which runs where the packet is handed up.
	sendTap func(pkt *Packet)

	// remote, when non-nil, replaces local delivery scheduling: instead of
	// keeping the packet in flight on this link's (sending-side) scheduler, the
	// packet is handed to the hook once it has gone on the wire, with its
	// arrival time and the sender-side time it leaves the wire. Sharded
	// execution installs it on links whose destination lives on another shard;
	// the receiving shard later calls DeliverRemote. See docs/PERF.md, "Sharded
	// execution".
	remote RemoteDeliver
}

// NewLink creates a link delivering to dst. The destination may be changed
// later with SetDestination (used while wiring up topologies).
func NewLink(sched *simtime.Scheduler, cfg LinkConfig, dst Receiver) *Link {
	l := new(Link)
	l.init(sched, cfg, dst)
	return l
}

// init builds the link in place; the Duplex, which holds both directions by
// value, uses it on its own memory.
func (l *Link) init(sched *simtime.Scheduler, cfg LinkConfig, dst Receiver) {
	if sched == nil {
		panic("netsim: NewLink requires a scheduler")
	}
	if cfg.QueuePackets < 0 || cfg.QueueBytes < 0 {
		panic("netsim: negative queue limit")
	}
	*l = Link{
		cfg:   cfg,
		sched: sched,
		dst:   dst,
		key:   nameKey(cfg.Name),
	}
	if cfg.Gilbert != nil {
		g := cfg.Gilbert.withDefaults()
		l.gilbert = &g
	}
}

// nameKey hashes a link-direction name (FNV-32a) into a scheduler sort key.
// The key orders same-instant delivery events from different links
// identically in serial and sharded executions, where no shared insertion
// order exists — see simtime.InjectAt. Zero is reserved to mean "unkeyed",
// so a hash of zero is bumped; distinct names colliding on one key merely
// falls back to the insertion-order tie-break for that pair.
func nameKey(name string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	if h == 0 {
		h = 1
	}
	return h
}

// SortKey returns the link's delivery sort key: the tie-break the scheduler
// uses to order this link's hand-up events against other links' deliveries
// scheduled at the same instant. Sharded execution passes it to InjectAt so
// cross-shard deliveries take the same position the serial run gives them.
func (l *Link) SortKey() uint32 { return l.key }

// random returns the link's private random source, creating it on first use
// from the construction-time seed.
func (l *Link) random() *rand.Rand {
	if l.rng == nil {
		seed := l.cfg.Seed
		if seed == 0 {
			seed = 1
		}
		l.rng = rand.New(rand.NewSource(seed))
	}
	return l.rng
}

// buffer returns the link's transmit queue, creating it on first use from the
// construction-time limits (100 packets when none is configured).
func (l *Link) buffer() *Queue {
	if l.queue == nil {
		qp, qb := l.cfg.QueuePackets, l.cfg.QueueBytes
		if qp == 0 && qb == 0 {
			qp = 100
		}
		l.queue = NewQueue(qp, qb)
	}
	return l.queue
}

// SetDestination points the link at a new receiver.
func (l *Link) SetDestination(dst Receiver) { l.dst = dst }

// SetTap installs an observer invoked for every delivered packet.
func (l *Link) SetTap(fn func(pkt *Packet)) { l.tap = fn }

// SetDropTap installs an observer invoked for every dropped packet with the
// reason ("loss" for Bernoulli loss, "burst" for Gilbert-Elliott loss, "down"
// for an out-of-service link, "queue" for buffer overflow).
func (l *Link) SetDropTap(fn func(pkt *Packet, reason string)) { l.dropTap = fn }

// SetSendTap installs an observer invoked for every packet accepted into the
// transmit queue (after the loss draws and any drop-tail eviction).
func (l *Link) SetSendTap(fn func(pkt *Packet)) { l.sendTap = fn }

// RemoteDeliver receives a packet whose delivery belongs to another
// scheduler, once it has started serialising: the packet arrives at the
// destination at time arrive; sent is the sender-side virtual time its
// serialisation ends (the insertion stamp for deterministic ordering, possibly
// later than the sender's clock) and seq the link-local delivery sequence
// (the sub-sequence tie-break; see Link.deliverSeq). A packet that started
// behind another is handed over when the link is next settled: by a Send or
// a read on the sending side, or by Settle, which sharded execution calls at
// every barrier.
type RemoteDeliver func(pkt *Packet, arrive, sent time.Duration, seq uint32)

// SetRemoteDeliver diverts this link's deliveries to a cross-scheduler hook.
// Serialisation, queueing and the loss draws still run on the sending side
// (they consume the link's private RNG in offered-packet order); only the
// final hand-up moves to the receiving side, which performs it by calling
// DeliverRemote at the packet's arrival time.
func (l *Link) SetRemoteDeliver(fn RemoteDeliver) { l.remote = fn }

// Config returns a snapshot of the link configuration. For a link whose
// parameters were changed mid-run, it reflects the current values; the
// Gilbert field is a defensive copy of the live model (with its defaults
// normalised), so mutating the snapshot never affects the running link.
func (l *Link) Config() LinkConfig {
	cfg := l.cfg
	if l.gilbert != nil {
		g := *l.gilbert
		cfg.Gilbert = &g
	} else {
		cfg.Gilbert = nil
	}
	return cfg
}

// SetBandwidth changes the serialisation rate. The packets that have gone on
// the wire by now complete at the old rate; the waiting ones start at the new.
func (l *Link) SetBandwidth(bw Bandwidth) {
	l.Settle()
	l.cfg.Bandwidth = bw
}

// SetGilbert installs (or, with nil, removes) the bursty loss model. The model
// starts in the Good state; replacing a model resets its state.
func (l *Link) SetGilbert(g *GilbertElliott) {
	l.geBad = false
	if g == nil {
		l.gilbert = nil
		return
	}
	ng := g.withDefaults()
	l.gilbert = &ng
}

// SetDown takes the link down (true) or brings it back up (false). While down,
// offered packets are dropped (counted as DownDrops) and already-queued
// packets are held; bringing the link up resumes draining the queue. Packets
// already serialising or propagating when the link goes down complete
// normally, matching an outage that begins behind them.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.Settle()
	l.down = down
	// The held packets start as the packet ahead of them leaves the wire, or
	// now if it already has.
	if q := l.queue; !down && q != nil && q.count > 0 {
		if _, ended := l.sched.Fired(l.txEnd, l.txStart, 0, l.key, l.txSeq); ended {
			l.start(l.sched.Now(), l.sched.Reserve())
		}
	}
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// Stats returns a copy of the link counters. The copy spans both writing
// sides of the ownership split (DeliveredOctets is written by the receiving
// side's scheduler, the rest by the sending side's), so under sharded
// execution it may only be taken at quiescence: a barrier, where probes
// sample, or after the run.
func (l *Link) Stats() LinkStats {
	l.Settle()
	st := l.stats
	st.SentPackets, st.SentBytes = l.SentCounters()
	return st
}

// SentCounters returns the transmit-side packet and byte counters. Written
// only by the sending side's scheduler, so a sampler there may read mid-run.
//
// A packet counts as sent once the clock has reached the end of its
// serialisation; until then the one on the wire is left out.
func (l *Link) SentCounters() (packets int, bytes int64) {
	l.Settle()
	if l.sched.Now() < l.txEnd {
		return l.stats.SentPackets - 1, l.stats.SentBytes - int64(l.txSize)
	}
	return l.stats.SentPackets, l.stats.SentBytes
}

// QueueStats returns the counters of the link's buffer.
func (l *Link) QueueStats() QueueStats {
	l.Settle()
	if l.queue == nil {
		return QueueStats{}
	}
	return l.queue.Stats()
}

// QueueLen returns the instantaneous queue depth in packets.
func (l *Link) QueueLen() int {
	l.Settle()
	if l.queue == nil {
		return 0
	}
	return l.queue.Len()
}

// Utilization returns the fraction of virtual time the link spent
// serialising packets, measured against the elapsed time on the scheduler.
// BusyTime books a packet in full when it goes on the wire; the part not yet
// serialised is left out here, so the fraction never exceeds 1.
func (l *Link) Utilization() float64 {
	l.Settle()
	now := l.sched.Now()
	if now <= 0 {
		return 0
	}
	return float64(l.stats.BusyTime-max(0, l.txEnd-now)) / float64(now)
}

// Send presents a packet to the link. It applies random loss, enqueues the
// packet and starts the transmitter if idle. It returns false if the packet
// was dropped immediately (random loss or queue overflow).
func (l *Link) Send(pkt *Packet) bool {
	if pkt == nil {
		panic("netsim: Send(nil)")
	}
	if l.down {
		l.stats.DownDrops++
		if l.dropTap != nil {
			l.dropTap(pkt, "down")
		}
		pkt.Release()
		return false
	}
	// The Gilbert-Elliott process advances for every offered packet (its
	// occupancy counters are defined over offered packets), so it is sampled
	// before the memoryless Bernoulli knob.
	if l.gilbert != nil && l.geStep() {
		l.stats.BurstDrops++
		if l.dropTap != nil {
			l.dropTap(pkt, "burst")
		}
		pkt.Release()
		return false
	}
	if l.cfg.LossRate > 0 && l.random().Float64() < l.cfg.LossRate {
		l.stats.BernoulliDrops++
		if l.dropTap != nil {
			l.dropTap(pkt, "loss")
		}
		pkt.Release()
		return false
	}
	q := l.buffer()
	l.Settle()
	if q.Enqueue(pkt) != nil {
		l.stats.QueueDrops++
		if l.dropTap != nil {
			l.dropTap(pkt, "queue")
		}
		pkt.Release()
		return false
	}
	if l.sendTap != nil {
		l.sendTap(pkt)
	}
	if now := l.sched.Now(); q.count == 1 && now >= l.txEnd {
		l.start(now, l.sched.Reserve())
	}
	return true
}

// Settle brings the transmitter up to the scheduler's current point: while
// the tx-done of the packet on the wire has fired, it starts the next waiting
// packet at that instant, with the seq an insertion made there would have
// taken. A down link starts nothing: its packets are held. Every reader
// settles on its own; sharded execution calls Settle at each barrier on a
// direction whose deliveries cross to another shard, so that each packet that
// went on the wire in the window is handed off before the next one opens.
func (l *Link) Settle() {
	for q := l.queue; q != nil && q.count > 0 && !l.down; {
		after, ended := l.sched.Fired(l.txEnd, l.txStart, 0, l.key, l.txSeq)
		if !ended {
			return
		}
		l.start(l.txEnd, after)
	}
}

// start puts the queue's head on the wire at instant at; seq is the seq of its
// tx-done. It books the packet and moves it to the in-flight list, keying the
// hand-up if the list was empty, or hands it off to another shard.
func (l *Link) start(at time.Duration, seq uint64) {
	pkt := l.queue.Dequeue()
	txTime := l.cfg.Bandwidth.TransmitTime(pkt.Size)
	pkt.txEnd = max(at+txTime, at)
	l.txStart, l.txEnd, l.txSeq, l.txSize = at, pkt.txEnd, seq, int32(pkt.Size)
	l.stats.BusyTime += txTime
	l.stats.SentPackets++
	l.stats.SentBytes += int64(pkt.Size)
	if l.remote != nil {
		// Cross-scheduler delivery: the destination's shard performs the
		// hand-up (DeliverRemote) at the arrival time.
		l.deliverSeq++
		l.remote(pkt, l.arrival(pkt), pkt.txEnd, l.deliverSeq)
		return
	}
	if l.flyTail == nil {
		l.fly = pkt
		l.keyHandUp()
	} else {
		l.flyTail.next = pkt
	}
	l.flyTail = pkt
}

// arrival is when a packet on the wire reaches the far end.
func (l *Link) arrival(pkt *Packet) time.Duration { return max(pkt.txEnd+l.cfg.Delay, pkt.txEnd) }

// keyHandUp schedules the hand-up of the in-flight head. It is stamped with
// the end of the head's serialisation, the instant its tx-done would have
// inserted it, keyed by the link direction so same-instant deliveries from
// different links order by link identity — the only tie-break that serial and
// sharded executions can both compute (see SortKey) — and sub-sequenced by
// its delivery number.
func (l *Link) keyHandUp() {
	l.sched.InjectAt(l.arrival(l.fly), l.fly.txEnd, l.key, l.deliverSeq+1, simtime.KindPktDeliver, handUp, l)
}

// handUp is the callback of a direction's hand-up event, a package-level
// function with the link as its argument so that a link owns no closures: most
// directions of an internet-scale topology never carry a packet. It takes the
// head off the in-flight list, keys the next one — settling first if the list
// is empty, since the next packet went on the wire as the head came off it,
// unless the link is down — and hands the head up.
func handUp(x any) {
	l := x.(*Link)
	pkt := l.fly
	if l.fly = pkt.next; l.fly == nil {
		l.flyTail = nil
	}
	pkt.next = nil
	l.deliverSeq++
	if l.fly != nil {
		l.keyHandUp()
	} else {
		l.Settle()
	}
	l.DeliverRemote(pkt, l.sched.Now())
}

// DeliverRemote hands a packet up to the destination at now: the hand-up
// event of a local delivery calls it, and so does the destination shard of a
// cross-scheduler one when its injected delivery event fires, passing its own
// clock. Delivery-side statistics (DeliveredAt, DeliveredOctets) are
// therefore only ever written by the destination shard, while the sending
// shard writes the serialisation-side counters — the field-level ownership
// split that keeps a shared Link struct race-free without locks.
func (l *Link) DeliverRemote(pkt *Packet, now time.Duration) {
	l.stats.DeliveredAt = now
	l.stats.DeliveredOctets += int64(pkt.Size)
	if l.tap != nil {
		l.tap(pkt)
	}
	if l.dst != nil {
		l.dst.Receive(pkt)
	} else {
		pkt.Release()
	}
}

// Duplex is a pair of links forming a bidirectional channel between two
// receivers, the common case when wiring two hosts together. It is one object:
// Forward and Reverse point at the two directions it holds by value, so a
// topology can lay its duplexes out in one slab (see Init).
//
// Under sharded execution the two directions are written by different shards,
// so no cache line may hold bytes of both. A slab starts on a line (a large
// allocation) or eight bytes past one (a small one, behind its allocation
// header). The middle padding puts rev a whole number of lines after fwd, past
// the pointer pair, and the tail padding rounds the Duplex up to whole lines:
// either way the line boundaries that fall between two directions fall inside
// the pointer pair or the padding, which nobody writes after Init
// (TestDuplexLayout).
type Duplex struct {
	fwd     Link
	Forward *Link
	Reverse *Link
	_       [(cacheLine - (unsafe.Sizeof(Link{})+2*unsafe.Sizeof(uintptr(0)))%cacheLine) % cacheLine]byte
	rev     Link
	_       [cacheLine - unsafe.Sizeof(Link{})%cacheLine]byte
}

const cacheLine = 64

// NewDuplex builds a bidirectional channel using the same configuration for
// both directions (destination receivers are set separately with Connect).
func NewDuplex(sched *simtime.Scheduler, cfg LinkConfig) *Duplex {
	return NewDuplexOn(sched, sched, cfg)
}

// NewDuplexOn builds a bidirectional channel whose two directions run on
// (possibly) different schedulers: each direction is owned by the shard of
// the host that transmits on it, so fwd is the A-side scheduler and rev the
// B-side one. NewDuplex is the single-scheduler special case.
func NewDuplexOn(fwd, rev *simtime.Scheduler, cfg LinkConfig) *Duplex {
	d := new(Duplex)
	d.Init(fwd, rev, cfg, cfg.Name+"-fwd", cfg.Name+"-rev")
	return d
}

// Init builds the duplex in place, on memory the caller owns — an element of a
// slab that lives as long as the topology. The directions take the given names
// (NewDuplexOn derives them from cfg.Name; a caller with many duplexes cuts
// them from one buffer) and cfg's Seed and Seed+1. A Duplex must not be copied
// after Init: Forward and Reverse point into it.
func (d *Duplex) Init(fwd, rev *simtime.Scheduler, cfg LinkConfig, fwdName, revName string) {
	fcfg := cfg
	rcfg := cfg
	fcfg.Name = fwdName
	rcfg.Name = revName
	if cfg.Seed != 0 {
		rcfg.Seed = cfg.Seed + 1
	}
	d.fwd.init(fwd, fcfg, nil)
	d.rev.init(rev, rcfg, nil)
	d.Forward, d.Reverse = &d.fwd, &d.rev
}

// Connect points the forward link at b and the reverse link at a.
func (d *Duplex) Connect(a, b Receiver) {
	d.Forward.SetDestination(b)
	d.Reverse.SetDestination(a)
}
