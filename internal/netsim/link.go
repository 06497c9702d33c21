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
// Everything about a packet's trip is fixed the moment it goes on the wire:
// serialisation time, propagation delay and its link-local delivery number. So
// its hand-up event is scheduled right then, for txEnd + delay with the
// insertion stamp txEnd, and the transmitter itself needs an event only when
// somebody waits for it. It is in one of three states:
//
//   - free (Now >= txEnd): a Send, or SetDown(false) with a held backlog,
//     starts serialising at once. A hop on an idle link is one event.
//   - busy (Now < txEnd, nothing queued): no event is pending for txEnd; the
//     transmitter becomes free by the clock.
//   - armed (a packet waits): the first packet to queue behind the wire puts
//     a tx-done event at txEnd, which starts the next packet and re-arms
//     itself while the queue is non-empty. A saturated link is two events a
//     hop.
//
// The tie rule follows: a packet offered at exactly txEnd finds the
// transmitter free if nothing was queued, and queues behind the pending
// tx-done otherwise. That event is stamped txStart and keyed (0, link key), so
// among the events of its instant it has a place that does not depend on when
// it was armed: after events inserted before the serialisation started and
// unkeyed ones inserted in its first instant, before every hand-up.
//
// Links are mutable mid-run: the dynamics subsystem may take a link down,
// bring it back up, or swap bandwidth/delay/loss parameters while packets are
// in flight. Parameter changes apply to packets serialised after the change;
// packets already serialising or propagating complete under the old
// parameters (their delivery events are already scheduled). While a link is
// down, newly offered packets are dropped and queued packets are held; the
// queue resumes draining when the link comes back up.
type Link struct {
	cfg   LinkConfig
	sched *simtime.Scheduler
	dst   Receiver
	// queue is the transmit buffer, created by the first Send: in an
	// internet-scale topology almost every direction never carries a packet,
	// and a Queue with its ring is ~290 bytes. A nil queue reads as an empty
	// one (QueueLen, QueueStats).
	queue *Queue
	// key orders this link's delivery events against same-instant deliveries
	// from other links (see SortKey). Derived from the direction name at
	// construction so serial and sharded builds agree on it.
	key uint32
	// deliverSeq is the link-local delivery sequence: incremented once per
	// serialised packet and attached to the hand-up event as the scheduler's
	// sub-sequence tie-break, so multiple same-instant deliveries of one
	// direction order by an explicit, shard-independent number instead of
	// scheduler insertion order. uint32 wrap after ~4.3e9 deliveries on one
	// direction could misorder only a pair tied at the same instant across
	// the wrap — beyond any run this simulator performs.
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
	geBad   bool

	// The transmitter. txStart and txEnd bracket the serialisation of the most
	// recent packet and txSize is its wire size; the clock against txEnd says
	// whether the wire is free, and armed says whether a tx-done event is
	// pending at txEnd (see the type comment).
	txStart, txEnd time.Duration
	txSize         int
	down, armed    bool
	stats          LinkStats

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
	// putting the delivery event on this link's (sending-side) scheduler, the
	// packet is handed to the hook as it goes on the wire, with its arrival
	// time and the sender-side time it will have left the wire. Sharded
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
// scheduler, at the moment it starts serialising: the packet arrives at the
// destination at time arrive; sent is the sender-side virtual time its
// serialisation ends (the insertion stamp for deterministic ordering, possibly
// later than the sender's clock) and seq the link-local delivery sequence
// (the sub-sequence tie-break; see Link.deliverSeq).
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

// SetBandwidth changes the serialisation rate. The packet currently being
// serialised (if any) completes at the old rate.
func (l *Link) SetBandwidth(bw Bandwidth) { l.cfg.Bandwidth = bw }

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
	l.down = down
	if !down && !l.armed && l.sched.Now() >= l.txEnd {
		l.startTransmit()
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
	if l.sched.Now() < l.txEnd {
		return l.stats.SentPackets - 1, l.stats.SentBytes - int64(l.txSize)
	}
	return l.stats.SentPackets, l.stats.SentBytes
}

// QueueStats returns the counters of the link's buffer.
func (l *Link) QueueStats() QueueStats {
	if l.queue == nil {
		return QueueStats{}
	}
	return l.queue.Stats()
}

// QueueLen returns the instantaneous queue depth in packets.
func (l *Link) QueueLen() int {
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
	pkt.Enqueued = l.sched.Now()
	if victim := l.buffer().Enqueue(pkt); victim != nil {
		l.stats.QueueDrops++
		if l.dropTap != nil {
			l.dropTap(victim, "queue")
		}
		victim.Release()
		if victim == pkt {
			return false
		}
	}
	if l.sendTap != nil {
		l.sendTap(pkt)
	}
	if !l.armed && l.sched.Now() >= l.txEnd {
		l.startTransmit()
	} else if !l.armed {
		l.arm()
	}
	return true
}

// arm schedules the tx-done event for the packet on the wire, with the stamp
// and key that place it among the events of txEnd wherever it is armed from.
func (l *Link) arm() {
	l.armed = true
	l.sched.InjectAt(l.txEnd, l.txStart, 0, l.key, simtime.KindPktTransmit, txDone, l)
}

// txDone and handUp are the callbacks of the two per-packet events. They are
// package-level functions, the link travelling as the event argument or on the
// packet, so that a link owns no closures: most directions of an
// internet-scale topology never carry a packet.
func txDone(x any) { x.(*Link).startTransmit() }

func handUp(x any) {
	pkt := x.(*Packet)
	pkt.via.DeliverRemote(pkt, pkt.via.sched.Now())
}

// startTransmit puts the head-of-line packet on the wire: the caller has seen
// the clock at or past txEnd, and is the tx-done event if one was pending. It
// books the packet, schedules its hand-up and, if more packets wait, the
// tx-done that will start the next one. A down link does not serialise: queued
// packets wait for SetDown(false).
func (l *Link) startTransmit() {
	l.armed = false
	if l.down || l.QueueLen() == 0 {
		return
	}
	pkt := l.queue.Dequeue()
	now := l.sched.Now()
	txTime := l.cfg.Bandwidth.TransmitTime(pkt.Size)
	l.txStart, l.txEnd, l.txSize = now, max(now+txTime, now), pkt.Size
	l.stats.BusyTime += txTime
	l.stats.SentPackets++
	l.stats.SentBytes += int64(pkt.Size)
	if l.queue.Len() > 0 {
		l.arm()
	}
	// Every serialised packet takes the next link-local delivery sequence
	// number; it rides on the hand-up event (or the cross-shard injection) as
	// the sub-sequence tie-break.
	l.deliverSeq++
	// The hand-up is inserted now but stamped txEnd, the instant a tx-done
	// event would have inserted it, so it fires exactly where it always has.
	arrive := max(l.txEnd+l.cfg.Delay, l.txEnd)
	if l.remote != nil {
		// Cross-scheduler delivery: the destination's shard performs the
		// hand-up (DeliverRemote) at the arrival time.
		l.remote(pkt, arrive, l.txEnd, l.deliverSeq)
		return
	}
	// Hand-ups are keyed by the link direction so same-instant deliveries
	// from different links order by link identity — the only tie-break that
	// serial and sharded executions can both compute (see SortKey) — and
	// sub-sequenced by the delivery number within the direction.
	pkt.via = l
	l.sched.InjectAt(arrive, l.txEnd, l.key, l.deliverSeq, simtime.KindPktDeliver, handUp, pkt)
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
