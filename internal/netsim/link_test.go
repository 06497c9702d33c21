package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simtime"
)

type collector struct {
	pkts  []*Packet
	times []time.Duration
	sched *simtime.Scheduler
}

func (c *collector) Receive(p *Packet) {
	c.pkts = append(c.pkts, p)
	if c.sched != nil {
		c.times = append(c.times, c.sched.Now())
	}
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	// 1 Mbps, 10 ms delay: a 1250-byte packet serialises in 10 ms.
	l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps, Delay: 10 * time.Millisecond}, dst)
	if !l.Send(mkpkt(1250)) {
		t.Fatal("send failed")
	}
	s.Run()
	if len(dst.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(dst.pkts))
	}
	if got, want := dst.times[0], 20*time.Millisecond; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps, Delay: 0}, dst)
	// Two 1250-byte packets at 1 Mbps: 10 ms each, so deliveries at 10 and 20 ms.
	l.Send(mkpkt(1250))
	l.Send(mkpkt(1250))
	s.Run()
	if len(dst.times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.times))
	}
	if dst.times[0] != 10*time.Millisecond || dst.times[1] != 20*time.Millisecond {
		t.Fatalf("deliveries at %v, want [10ms 20ms]", dst.times)
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	l := NewLink(s, LinkConfig{Delay: 5 * time.Millisecond}, dst)
	l.Send(mkpkt(1_000_000))
	s.Run()
	if dst.times[0] != 5*time.Millisecond {
		t.Fatalf("infinite-bandwidth delivery at %v, want 5ms", dst.times[0])
	}
}

func TestLinkPreservesFIFOOrderUnderLoad(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	l := NewLink(s, LinkConfig{Bandwidth: 10 * Mbps, Delay: time.Millisecond, QueuePackets: 1000}, dst)
	var sent []*Packet
	for i := 0; i < 50; i++ {
		p := mkpkt(100 + i)
		sent = append(sent, p)
		l.Send(p)
	}
	s.Run()
	if len(dst.pkts) != 50 {
		t.Fatalf("delivered %d, want 50", len(dst.pkts))
	}
	for i := range sent {
		if dst.pkts[i] != sent[i] {
			t.Fatalf("packet %d delivered out of order", i)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	var drops []string
	l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps, QueuePackets: 5}, dst)
	l.SetDropTap(func(p *Packet, reason string) { drops = append(drops, reason) })
	// Burst far more than the queue can hold while the link is busy.
	for i := 0; i < 20; i++ {
		l.Send(mkpkt(1250))
	}
	s.Run()
	// One packet is in transmission, five were queued; the rest dropped.
	if len(dst.pkts) != 6 {
		t.Fatalf("delivered %d, want 6 (1 in service + 5 queued)", len(dst.pkts))
	}
	if l.Stats().QueueDrops != 14 {
		t.Fatalf("QueueDrops = %d, want 14", l.Stats().QueueDrops)
	}
	for _, r := range drops {
		if r != "queue" {
			t.Fatalf("unexpected drop reason %q", r)
		}
	}
}

func TestLinkRandomLossDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) int {
		s := simtime.NewScheduler()
		dst := &collector{}
		l := NewLink(s, LinkConfig{Bandwidth: 100 * Mbps, LossRate: 0.3, Seed: seed, QueuePackets: 10000}, dst)
		for i := 0; i < 1000; i++ {
			l.Send(mkpkt(1000))
		}
		s.Run()
		return len(dst.pkts)
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed produced different delivery counts: %d vs %d", a, b)
	}
	if a == 1000 || a == 0 {
		t.Fatalf("loss rate 0.3 delivered %d of 1000; expected partial delivery", a)
	}
	c := run(7)
	if c == a {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

func TestLinkLossRateApproximation(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{}
	l := NewLink(s, LinkConfig{Bandwidth: 1000 * Mbps, LossRate: 0.1, Seed: 3, QueuePackets: 100000}, dst)
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send(mkpkt(100))
	}
	s.Run()
	lossFrac := float64(l.Stats().BernoulliDrops) / float64(n)
	if lossFrac < 0.08 || lossFrac > 0.12 {
		t.Fatalf("observed loss %.3f, want ~0.10", lossFrac)
	}
}

func TestLinkTapObservesDeliveries(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{}
	l := NewLink(s, LinkConfig{Bandwidth: 10 * Mbps}, dst)
	var tapped int
	l.SetTap(func(p *Packet) { tapped++ })
	for i := 0; i < 5; i++ {
		l.Send(mkpkt(500))
	}
	s.Run()
	if tapped != 5 {
		t.Fatalf("tap saw %d packets, want 5", tapped)
	}
}

func TestLinkUtilizationAndStats(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{}
	l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps}, dst)
	l.Send(mkpkt(1250)) // 10ms of busy time
	s.Run()
	st := l.Stats()
	if st.SentPackets != 1 || st.SentBytes != 1250 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyTime != 10*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 10ms", st.BusyTime)
	}
	if u := l.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("Utilization = %v, want ~1.0", u)
	}
}

func TestLinkSendNilPanics(t *testing.T) {
	s := simtime.NewScheduler()
	l := NewLink(s, LinkConfig{}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send(nil) should panic")
		}
	}()
	l.Send(nil)
}

func TestNewLinkRequiresScheduler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink(nil, ...) should panic")
		}
	}()
	NewLink(nil, LinkConfig{}, nil)
}

func TestDuplexConnect(t *testing.T) {
	s := simtime.NewScheduler()
	a := &collector{sched: s}
	b := &collector{sched: s}
	d := NewDuplex(s, LinkConfig{Name: "lan", Bandwidth: 100 * Mbps, Delay: time.Millisecond, Seed: 9})
	d.Connect(a, b)
	d.Forward.Send(mkpkt(100))
	d.Reverse.Send(mkpkt(200))
	s.Run()
	if len(b.pkts) != 1 || b.pkts[0].Size != 100 {
		t.Fatal("forward link should deliver to b")
	}
	if len(a.pkts) != 1 || a.pkts[0].Size != 200 {
		t.Fatal("reverse link should deliver to a")
	}
	if d.Forward.Config().Name != "lan-fwd" || d.Reverse.Config().Name != "lan-rev" {
		t.Fatal("duplex link names not derived from base name")
	}
}

func TestBandwidthHelpers(t *testing.T) {
	if (10 * Mbps).BytesPerSecond() != 1.25e6 {
		t.Fatal("BytesPerSecond wrong")
	}
	if got := (1 * Mbps).TransmitTime(1250); got != 10*time.Millisecond {
		t.Fatalf("TransmitTime = %v, want 10ms", got)
	}
	if (Bandwidth(0)).TransmitTime(100) != 0 {
		t.Fatal("zero bandwidth should have zero transmit time")
	}
	for _, b := range []Bandwidth{500, 64 * Kbps, 10 * Mbps, 2 * Gbps} {
		if b.String() == "" {
			t.Fatal("Bandwidth.String empty")
		}
	}
}

// Property: a lossless link delivers every packet exactly once, in order, and
// total delivered bytes equal total sent bytes.
func TestPropertyLosslessLinkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		s := simtime.NewScheduler()
		dst := &collector{}
		l := NewLink(s, LinkConfig{Bandwidth: 10 * Mbps, Delay: time.Millisecond, QueuePackets: len(sizes) + 1}, dst)
		var total int64
		for _, sz := range sizes {
			size := int(sz%1400) + 40
			total += int64(size)
			l.Send(mkpkt(size))
		}
		s.Run()
		if len(dst.pkts) != len(sizes) {
			return false
		}
		var got int64
		for _, p := range dst.pkts {
			got += int64(p.Size)
		}
		return got == total && l.Stats().SentBytes == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the link never delivers more packets than were sent, and drops +
// deliveries account for every send, under random loss and a small queue.
func TestPropertyLossyLinkAccounting(t *testing.T) {
	f := func(n uint8, lossTenths uint8, seed int64) bool {
		s := simtime.NewScheduler()
		dst := &collector{}
		loss := float64(lossTenths%10) / 10
		l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps, LossRate: loss, Seed: seed, QueuePackets: 4}, dst)
		count := int(n)
		for i := 0; i < count; i++ {
			l.Send(mkpkt(1000))
		}
		s.Run()
		st := l.Stats()
		return len(dst.pkts)+st.BernoulliDrops+st.QueueDrops == count && st.BurstDrops+st.DownDrops == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A link builds its transmit queue on the first Send. Until then it reads as
// a link with an empty queue, and bringing it up from down has nothing to
// drain; afterwards the configured limits apply as if the queue had been
// there from the start.
func TestLinkQueueIsBuiltOnFirstSend(t *testing.T) {
	s := simtime.NewScheduler()
	dst := &collector{sched: s}
	l := NewLink(s, LinkConfig{Bandwidth: 1 * Mbps, QueuePackets: 3}, dst)
	if l.queue != nil {
		t.Fatal("an idle link already holds a queue")
	}
	if l.QueueLen() != 0 || l.QueueStats() != (QueueStats{}) {
		t.Fatalf("idle link reads QueueLen %d, QueueStats %+v", l.QueueLen(), l.QueueStats())
	}
	l.SetDown(true)
	l.SetDown(false)
	s.Run()
	if l.queue != nil || len(dst.pkts) != 0 {
		t.Fatal("flapping an idle link built a queue or delivered something")
	}

	for i := 0; i < 6; i++ {
		l.Send(mkpkt(1250))
	}
	// One in service, three queued, two dropped at the limit.
	if l.QueueLen() != 3 || l.Stats().QueueDrops != 2 {
		t.Fatalf("QueueLen = %d, QueueDrops = %d, want 3 and 2", l.QueueLen(), l.Stats().QueueDrops)
	}
	s.Run()
	if qs := l.QueueStats(); len(dst.pkts) != 4 || qs.MaxDepthPackets != 3 {
		t.Fatalf("delivered %d, queue stats %+v", len(dst.pkts), qs)
	}
}
