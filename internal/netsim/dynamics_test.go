package netsim

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func sendN(l *Link, n, size int) {
	for i := 0; i < n; i++ {
		p := NewPacket()
		p.Size = size
		l.Send(p)
	}
}

// TestGilbertElliottBurstiness pins the defining property of the two-state
// model: at equal average loss, drops cluster into runs instead of arriving
// independently, and the occupancy/transition counters account for every
// offered packet.
func TestGilbertElliottBurstiness(t *testing.T) {
	sched := simtime.NewScheduler()
	delivered := 0
	sink := ReceiverFunc(func(p *Packet) { delivered++; p.Release() })
	l := NewLink(sched, LinkConfig{
		Bandwidth:    100 * Mbps,
		QueuePackets: 1 << 16,
		Gilbert:      &GilbertElliott{PGoodBad: 0.02, PBadGood: 0.25},
		Seed:         7,
	}, sink)

	const offered = 20000
	sendN(l, offered, 1000)
	sched.Run()

	st := l.Stats()
	if st.GEGoodPackets+st.GEBadPackets != offered {
		t.Fatalf("occupancy %d+%d != offered %d", st.GEGoodPackets, st.GEBadPackets, offered)
	}
	if st.BurstDrops == 0 || st.GETransitions == 0 {
		t.Fatalf("model never engaged: %+v", st)
	}
	if st.BernoulliDrops != 0 {
		t.Fatalf("Bernoulli drops with LossRate 0: %+v", st)
	}
	if st.QueueDrops+st.DownDrops != 0 {
		t.Fatalf("queue or down drops on a lossless, unqueued, up link: %+v", st)
	}
	if delivered+st.BurstDrops != offered {
		t.Fatalf("delivered %d + dropped %d != offered %d", delivered, st.BurstDrops, offered)
	}
	// LossBad defaulted to 1, so every bad-state packet drops.
	if st.BurstDrops != st.GEBadPackets {
		t.Fatalf("with LossBad=1 every bad-state packet drops: %d != %d", st.BurstDrops, st.GEBadPackets)
	}
	// Burstiness: the number of distinct loss runs is the number of
	// Good->Bad transitions, far below the drop count for a bursty model.
	runs := (st.GETransitions + 1) / 2
	if runs*2 > st.BurstDrops {
		t.Fatalf("losses not bursty: %d drops in %d runs", st.BurstDrops, runs)
	}
}

// TestLinkDownHoldsQueueAndDropsArrivals checks the outage semantics: packets
// offered while down are dropped and counted, queued packets are held and
// drain after the link comes back up, and in-flight packets complete.
func TestLinkDownHoldsQueueAndDropsArrivals(t *testing.T) {
	sched := simtime.NewScheduler()
	delivered := 0
	sink := ReceiverFunc(func(p *Packet) { delivered++; p.Release() })
	// 1000-byte packets at 8 Kbps serialise in exactly 1 s.
	l := NewLink(sched, LinkConfig{Bandwidth: 8 * Kbps, QueuePackets: 10}, sink)

	// Queue three packets; the first starts serialising immediately.
	sendN(l, 3, 1000)
	if l.QueueLen() != 2 {
		t.Fatalf("queue len %d, want 2", l.QueueLen())
	}
	l.SetDown(true)
	if !l.IsDown() {
		t.Fatal("IsDown false after SetDown(true)")
	}
	// Offered while down: dropped.
	sendN(l, 2, 1000)
	if got := l.Stats().DownDrops; got != 2 {
		t.Fatalf("DownDrops %d, want 2", got)
	}
	// The in-flight packet completes; the two queued packets are held.
	sched.RunFor(10 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d during outage, want 1 (the in-flight packet)", delivered)
	}
	if l.QueueLen() != 2 {
		t.Fatalf("queue len %d during outage, want 2", l.QueueLen())
	}
	l.SetDown(false)
	sched.Run()
	if delivered != 3 {
		t.Fatalf("delivered %d after recovery, want 3", delivered)
	}
}

// TestLinkParameterSwapMidRun checks that a bandwidth change applies to
// packets serialised after the change while the in-flight packet completes
// under the old rate.
func TestLinkParameterSwapMidRun(t *testing.T) {
	sched := simtime.NewScheduler()
	var deliveredAt []time.Duration
	sink := ReceiverFunc(func(p *Packet) { deliveredAt = append(deliveredAt, sched.Now()); p.Release() })
	// 1000-byte packets at 8 Kbps serialise in exactly 1 s, plus 50 ms of
	// propagation.
	l := NewLink(sched, LinkConfig{Bandwidth: 8 * Kbps, Delay: 50 * time.Millisecond, QueuePackets: 10}, sink)
	sendN(l, 2, 1000)
	// Mid-serialisation of packet 1, make the link 10x faster: packet 1
	// completes under the old rate (arriving at t=1.05s); packet 2 serialises
	// in 100 ms under the new rate and arrives at t=1.15s.
	sched.RunUntil(500 * time.Millisecond)
	l.SetBandwidth(80 * Kbps)
	sched.Run()
	if len(deliveredAt) != 2 {
		t.Fatalf("delivered %d, want 2", len(deliveredAt))
	}
	if want := 1050 * time.Millisecond; deliveredAt[0] != want {
		t.Fatalf("in-flight packet delivered at %v, want %v (old rate)", deliveredAt[0], want)
	}
	if want := 1150 * time.Millisecond; deliveredAt[1] != want {
		t.Fatalf("second packet delivered at %v, want %v (new rate)", deliveredAt[1], want)
	}
}

// TestSetGilbertMidRunAndDisable checks that installing the model mid-run
// starts it in the Good state and that nil removes it.
func TestSetGilbertMidRunAndDisable(t *testing.T) {
	sched := simtime.NewScheduler()
	sink := ReceiverFunc(func(p *Packet) { p.Release() })
	l := NewLink(sched, LinkConfig{Bandwidth: 100 * Mbps, QueuePackets: 1 << 16, Seed: 3}, sink)

	sendN(l, 1000, 1000)
	sched.Run()
	if st := l.Stats(); st.GEGoodPackets+st.GEBadPackets != 0 {
		t.Fatalf("occupancy counted with no model: %+v", st)
	}

	l.SetGilbert(&GilbertElliott{PGoodBad: 1, PBadGood: 0}) // immediately absorbs into Bad
	sendN(l, 100, 1000)
	sched.Run()
	st := l.Stats()
	if st.GEGoodPackets != 1 || st.GEBadPackets != 99 {
		t.Fatalf("absorbing model occupancy: %+v", st)
	}
	if st.BurstDrops != 99 {
		t.Fatalf("absorbing model should drop every bad-state packet: %+v", st)
	}

	// Config exposes a defensive copy: mutating it must not change the link.
	cfg := l.Config()
	cfg.Gilbert.LossBad = 0
	if got := l.Config().Gilbert.LossBad; got != 1 {
		t.Fatalf("mutating the Config snapshot changed the live model: LossBad=%v", got)
	}

	l.SetGilbert(nil)
	sendN(l, 1000, 1000)
	sched.Run()
	if got := l.Stats().BurstDrops; got != 99 {
		t.Fatalf("drops continued after disable: %d", got)
	}
	if l.Config().Gilbert != nil {
		t.Fatal("Config still reports a model after SetGilbert(nil)")
	}
}

func TestGilbertElliottValidate(t *testing.T) {
	good := GilbertElliott{PGoodBad: 0.1, PBadGood: 0.5, LossBad: 0.8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	for _, bad := range []GilbertElliott{
		{PGoodBad: -0.1, PBadGood: 0.5},
		{PGoodBad: 0.1, PBadGood: 1.5},
		{PGoodBad: 0.1, PBadGood: 0.5, LossGood: 2},
		{PGoodBad: 0.1, PBadGood: 0.5, LossBad: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid model accepted: %+v", bad)
		}
	}
}
