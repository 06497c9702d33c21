package scenario

import (
	"fmt"
	"time"

	"repro/internal/dynamics"
	"repro/internal/netsim"
)

// DumbbellParams parameterises the canonical shared-bottleneck topology.
type DumbbellParams struct {
	// Senders and Receivers are the leaf counts on each side.
	Senders   int
	Receivers int
	// FlowsPerPair is the number of concurrent connections from each sender
	// to each of its destinations.
	FlowsPerPair int
	// CrossProduct sends from every sender to every receiver; otherwise
	// sender i sends only to receiver i mod Receivers.
	CrossProduct bool
	// CC selects the congestion controller of all workloads.
	CC string
	// Bottleneck configures the shared link; zero fields get the defaults of
	// a 10 Mbps / 20 ms / 120-packet pipe.
	Bottleneck netsim.LinkConfig
	// AccessBandwidth is the edge-link rate (default 100 Mbps, fast enough
	// that the shared link is the bottleneck).
	AccessBandwidth netsim.Bandwidth
	// Bytes per flow (0 = stream for the whole run).
	Bytes    int
	Duration time.Duration
	Seed     int64
}

func (p *DumbbellParams) fillDefaults() {
	if p.Senders <= 0 {
		p.Senders = 2
	}
	if p.Receivers <= 0 {
		p.Receivers = 2
	}
	if p.FlowsPerPair <= 0 {
		p.FlowsPerPair = 1
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	if p.Bottleneck.Bandwidth == 0 {
		p.Bottleneck.Bandwidth = 10 * netsim.Mbps
	}
	if p.Bottleneck.Delay == 0 {
		p.Bottleneck.Delay = 20 * time.Millisecond
	}
	if p.Bottleneck.QueuePackets == 0 && p.Bottleneck.QueueBytes == 0 {
		p.Bottleneck.QueuePackets = 120
	}
	if p.AccessBandwidth == 0 {
		p.AccessBandwidth = 100 * netsim.Mbps
	}
	if p.Duration == 0 {
		p.Duration = 20 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Dumbbell builds N senders and M receivers joined through two routers and
// one shared bottleneck link:
//
//	s0..sN-1 -- left -- bottleneck -- right -- d0..dM-1
//
// It is the topology behind the paper's ensemble-sharing argument: all flows
// crossing the bottleneck share its queue, and each sender's CM aggregates
// its flows per destination.
func Dumbbell(p DumbbellParams) Spec {
	p.fillDefaults()
	access := netsim.LinkConfig{
		Bandwidth:    p.AccessBandwidth,
		Delay:        250 * time.Microsecond,
		QueuePackets: 300,
	}
	spec := Spec{
		Name: "dumbbell",
		Description: fmt.Sprintf("%d senders and %d receivers behind one shared %s bottleneck",
			p.Senders, p.Receivers, p.Bottleneck.Bandwidth),
		Routers:  []string{"left", "right"},
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	bn := p.Bottleneck
	bn.Name = "bottleneck"
	spec.Links = append(spec.Links, LinkSpec{A: "left", B: "right", LinkConfig: bn})
	for i := 0; i < p.Senders; i++ {
		spec.Links = append(spec.Links, LinkSpec{A: sname(i), B: "left", LinkConfig: access})
	}
	for j := 0; j < p.Receivers; j++ {
		spec.Links = append(spec.Links, LinkSpec{A: "right", B: dname(j), LinkConfig: access})
	}
	kind := KindStream
	if p.Bytes > 0 {
		kind = KindBulk
	}
	for i := 0; i < p.Senders; i++ {
		if p.CrossProduct {
			for j := 0; j < p.Receivers; j++ {
				spec.Workloads = append(spec.Workloads, Workload{
					Kind: kind, From: sname(i), To: dname(j),
					Flows: p.FlowsPerPair, Bytes: p.Bytes, CC: p.CC,
				})
			}
		} else {
			spec.Workloads = append(spec.Workloads, Workload{
				Kind: kind, From: sname(i), To: dname(i % p.Receivers),
				Flows: p.FlowsPerPair, Bytes: p.Bytes, CC: p.CC,
			})
		}
	}
	return spec
}

func sname(i int) string { return fmt.Sprintf("s%d", i) }
func dname(j int) string { return fmt.Sprintf("d%d", j) }

// ParkingLotParams parameterises the multi-bottleneck chain.
type ParkingLotParams struct {
	// Hops is the number of router-to-router links in the chain (>= 2).
	Hops int
	// CC selects the congestion controller of all workloads.
	CC string
	// HopBandwidth is the rate of each chain link (default 10 Mbps).
	HopBandwidth netsim.Bandwidth
	Duration     time.Duration
	Seed         int64
}

// ParkingLot builds the classic chain of H hops with one long flow crossing
// every hop and one short cross-flow per hop:
//
//	long:  src -- r0 -- r1 -- ... -- rH -- dst
//	short: xi  -- ri -- r(i+1) -- yi      (one per hop)
//
// The long flow competes with fresh traffic at every router queue, the
// standard stress test for multi-hop congestion control.
func ParkingLot(p ParkingLotParams) Spec {
	if p.Hops < 2 {
		p.Hops = 3
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	if p.HopBandwidth == 0 {
		p.HopBandwidth = 10 * netsim.Mbps
	}
	if p.Duration == 0 {
		p.Duration = 20 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	hop := netsim.LinkConfig{
		Bandwidth:    p.HopBandwidth,
		Delay:        5 * time.Millisecond,
		QueuePackets: 100,
	}
	access := netsim.LinkConfig{
		Bandwidth:    100 * netsim.Mbps,
		Delay:        250 * time.Microsecond,
		QueuePackets: 300,
	}
	spec := Spec{
		Name:        "parkinglot",
		Description: fmt.Sprintf("parking lot: one long flow over %d hops vs per-hop cross traffic", p.Hops),
		Duration:    p.Duration,
		Seed:        p.Seed,
	}
	rname := func(i int) string { return fmt.Sprintf("r%d", i) }
	for i := 0; i <= p.Hops; i++ {
		spec.Routers = append(spec.Routers, rname(i))
	}
	for i := 0; i < p.Hops; i++ {
		spec.Links = append(spec.Links, LinkSpec{A: rname(i), B: rname(i + 1), LinkConfig: hop})
	}
	spec.Links = append(spec.Links,
		LinkSpec{A: "src", B: rname(0), LinkConfig: access},
		LinkSpec{A: rname(p.Hops), B: "dst", LinkConfig: access},
	)
	spec.Workloads = append(spec.Workloads, Workload{
		Kind: KindStream, From: "src", To: "dst", CC: p.CC,
	})
	for i := 0; i < p.Hops; i++ {
		x, y := fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i)
		spec.Links = append(spec.Links,
			LinkSpec{A: x, B: rname(i), LinkConfig: access},
			LinkSpec{A: rname(i + 1), B: y, LinkConfig: access},
		)
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindStream, From: x, To: y, CC: p.CC,
		})
	}
	return spec
}

// StarParams parameterises the hub-and-spoke topology.
type StarParams struct {
	// Leaves is the number of spoke hosts (>= 3).
	Leaves int
	// CC selects the congestion controller of all workloads.
	CC string
	// SpokeBandwidth is the per-spoke rate (default 10 Mbps).
	SpokeBandwidth netsim.Bandwidth
	// Bytes per flow (0 = stream).
	Bytes    int
	Duration time.Duration
	Seed     int64
}

// Star builds N leaf hosts around one hub router, with each leaf sending to
// the next (li -> l(i+1) mod N), so every flow crosses two spoke links and
// contends at the hub. A server-like concentration pattern appears at each
// leaf's uplink.
func Star(p StarParams) Spec {
	if p.Leaves < 3 {
		p.Leaves = 4
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	if p.SpokeBandwidth == 0 {
		p.SpokeBandwidth = 10 * netsim.Mbps
	}
	if p.Duration == 0 {
		p.Duration = 20 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	spoke := netsim.LinkConfig{
		Bandwidth:    p.SpokeBandwidth,
		Delay:        5 * time.Millisecond,
		QueuePackets: 100,
	}
	spec := Spec{
		Name:        "star",
		Description: fmt.Sprintf("%d leaves around one hub router, each streaming to its neighbour", p.Leaves),
		Routers:     []string{"hub"},
		Duration:    p.Duration,
		Seed:        p.Seed,
	}
	lname := func(i int) string { return fmt.Sprintf("l%d", i) }
	kind := KindStream
	if p.Bytes > 0 {
		kind = KindBulk
	}
	for i := 0; i < p.Leaves; i++ {
		spec.Links = append(spec.Links, LinkSpec{A: lname(i), B: "hub", LinkConfig: spoke})
	}
	for i := 0; i < p.Leaves; i++ {
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: kind, From: lname(i), To: lname((i + 1) % p.Leaves),
			Bytes: p.Bytes, CC: p.CC,
		})
	}
	return spec
}

// WirelessParams parameterises the wireless-like bursty-loss path.
type WirelessParams struct {
	// Bandwidth and OneWayDelay describe the channel (default 4 Mbps, 10 ms).
	Bandwidth   netsim.Bandwidth
	OneWayDelay time.Duration
	// Gilbert is the ambient bursty loss process (default: rare fades with a
	// mean burst of four packets dropping 50%).
	Gilbert netsim.GilbertElliott
	// FadeAt / FadeUntil bracket a scheduled deep fade during which the Bad
	// state dominates; zero values default to 8 s and 13 s. FadeAt < 0
	// disables the fade events.
	FadeAt    time.Duration
	FadeUntil time.Duration
	Duration  time.Duration
	Seed      int64
}

// Wireless builds sender<->receiver over a bursty (Gilbert-Elliott) channel
// carrying one CM-managed TCP stream and one layered UDP stream in the
// rate-callback mode. A scheduled deep fade makes the channel much worse
// mid-run and then restores it, so the trace shows both transports backing
// off and recovering — the wireless story the paper's adaptation section
// assumes.
func Wireless(p WirelessParams) Spec {
	if p.Bandwidth == 0 {
		p.Bandwidth = 4 * netsim.Mbps
	}
	if p.OneWayDelay <= 0 {
		p.OneWayDelay = 10 * time.Millisecond
	}
	if p.Gilbert == (netsim.GilbertElliott{}) {
		p.Gilbert = netsim.GilbertElliott{PGoodBad: 0.002, PBadGood: 0.25, LossBad: 0.5}
	}
	if p.FadeAt == 0 {
		p.FadeAt = 8 * time.Second
	}
	if p.FadeUntil <= p.FadeAt {
		p.FadeUntil = p.FadeAt + 5*time.Second
	}
	if p.Duration == 0 {
		p.Duration = 20 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	spec := Spec{
		Name: "wireless",
		Description: fmt.Sprintf("bursty-loss %s channel with a scheduled deep fade at %v",
			p.Bandwidth, p.FadeAt),
		Links: []LinkSpec{{A: "sender", B: "receiver", LinkConfig: netsim.LinkConfig{
			Bandwidth:    p.Bandwidth,
			Delay:        p.OneWayDelay,
			QueuePackets: 100,
			Gilbert:      &p.Gilbert,
		}}},
		Workloads: []Workload{
			{Kind: KindStream, From: "sender", To: "receiver", CC: CCCM},
			{Kind: KindUDPRate, From: "sender", To: "receiver"},
		},
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	if p.FadeAt >= 0 {
		fade := netsim.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.08, LossBad: 0.9}
		restore := p.Gilbert
		spec.Events = []dynamics.Event{
			{At: p.FadeAt, Kind: dynamics.SetGilbert, Link: 0, Gilbert: &fade},
			{At: p.FadeUntil, Kind: dynamics.SetGilbert, Link: 0, Gilbert: &restore},
		}
	}
	return spec
}

// AsymmetricParams parameterises the bandwidth-asymmetric path.
type AsymmetricParams struct {
	// Forward and Reverse are the two directions' rates (defaults 10 Mbps
	// and 128 Kbps — an ADSL-like ack-constrained path).
	Forward, Reverse netsim.Bandwidth
	// SqueezeAt halves the reverse channel mid-run (0 defaults to 10 s;
	// negative disables the event).
	SqueezeAt time.Duration
	Duration  time.Duration
	Seed      int64
}

// Asymmetric builds a point-to-point path whose reverse direction is orders
// of magnitude slower than the forward one, declared as a time-zero dynamics
// event on the duplex (per-direction parameters are link events, not static
// spec fields). CM-managed bulk flows forward are ack-clocked through the
// constrained reverse channel, which a scheduled squeeze then halves.
func Asymmetric(p AsymmetricParams) Spec {
	if p.Forward == 0 {
		p.Forward = 10 * netsim.Mbps
	}
	if p.Reverse == 0 {
		p.Reverse = 128 * netsim.Kbps
	}
	if p.SqueezeAt == 0 {
		p.SqueezeAt = 10 * time.Second
	}
	if p.Duration == 0 {
		p.Duration = 20 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	spec := Spec{
		Name: "asymmetric",
		Description: fmt.Sprintf("%s forward / %s reverse ack-constrained path",
			p.Forward, p.Reverse),
		Links: []LinkSpec{{A: "sender", B: "receiver", LinkConfig: netsim.LinkConfig{
			Bandwidth:    p.Forward,
			Delay:        15 * time.Millisecond,
			QueuePackets: 120,
		}}},
		Workloads: []Workload{
			{Kind: KindStream, From: "sender", To: "receiver", Flows: 2, CC: CCCM},
		},
		Events: []dynamics.Event{
			{At: 0, Kind: dynamics.SetBandwidth, Link: 0, Direction: dynamics.DirReverse, Bandwidth: p.Reverse},
		},
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	if p.SqueezeAt >= 0 {
		spec.Events = append(spec.Events, dynamics.Event{
			At: p.SqueezeAt, Kind: dynamics.SetBandwidth, Link: 0,
			Direction: dynamics.DirReverse, Bandwidth: p.Reverse / 2,
		})
	}
	return spec
}

// FlakyDumbbellParams parameterises the dumbbell with a scheduled bottleneck
// outage.
type FlakyDumbbellParams struct {
	Dumbbell DumbbellParams
	// DownAt / UpAt bracket the bottleneck outage (defaults 6 s and 10 s).
	DownAt, UpAt time.Duration
}

// FlakyDumbbell is the dumbbell with its shared bottleneck scheduled to fail
// and recover mid-run: CM macroflows collapse when the path disappears
// (timeouts report persistent congestion) and probe back up after the link
// returns — the adaptation-under-failure acceptance scenario.
func FlakyDumbbell(p FlakyDumbbellParams) Spec {
	if p.DownAt <= 0 {
		p.DownAt = 6 * time.Second
	}
	if p.UpAt <= p.DownAt {
		p.UpAt = p.DownAt + 4*time.Second
	}
	spec := Dumbbell(p.Dumbbell)
	spec.Name = "flaky-dumbbell"
	spec.Description = fmt.Sprintf("dumbbell whose bottleneck fails at %v and recovers at %v", p.DownAt, p.UpAt)
	// The bottleneck is always Links[0] in the Dumbbell builder.
	spec.Events = []dynamics.Event{
		{At: p.DownAt, Kind: dynamics.LinkDown, Link: 0},
		{At: p.UpAt, Kind: dynamics.LinkUp, Link: 0},
	}
	return spec
}

// GridParams parameterises the cluster-grid topology: an R×C grid of routers
// joined by long-delay backbone links, each router the hub of a small
// cluster of leaf hosts on short access links.
type GridParams struct {
	// Rows and Cols shape the router grid (default 4×4).
	Rows, Cols int
	// HostsPerCluster is the leaf count per router (default 3, making the
	// default topology 16 routers + 48 hosts = 64 nodes).
	HostsPerCluster int
	// AccessBandwidth / AccessDelay describe the host-router links (defaults
	// 20 Mbps, 1 ms) — slow enough that each cluster's local stream congests
	// its own access pipe, a miniature dumbbell per cluster.
	AccessBandwidth netsim.Bandwidth
	AccessDelay     time.Duration
	// BackboneBandwidth / BackboneDelay describe the router-router links
	// (defaults 10 Mbps, 10 ms). The backbone delay dominates every
	// cross-cluster path, which is what gives a sharded run its lookahead:
	// partitioning cuts only backbone links.
	BackboneBandwidth netsim.Bandwidth
	BackboneDelay     time.Duration
	// CC selects the congestion controller of all workloads (default CM).
	CC       string
	Duration time.Duration
	Seed     int64
}

// DumbbellGrid builds the cluster grid: within every cluster, host 0 streams
// to host 1 for the whole run, and the last host sends a staggered bulk
// transfer to host 0 of the next cluster (wrapping), so backbone links carry
// real transit traffic. With its many mostly-independent clusters joined by
// high-delay links it is the reference workload for sharded execution
// (cmperf's `grid64_cm_shards2`): delay-weighted partitioning keeps whole
// clusters on one shard and the 10 ms backbone becomes the lookahead.
func DumbbellGrid(p GridParams) Spec {
	if p.Rows <= 0 {
		p.Rows = 4
	}
	if p.Cols <= 0 {
		p.Cols = 4
	}
	if p.HostsPerCluster < 2 {
		p.HostsPerCluster = 3
	}
	if p.AccessBandwidth == 0 {
		p.AccessBandwidth = 20 * netsim.Mbps
	}
	if p.AccessDelay <= 0 {
		p.AccessDelay = time.Millisecond
	}
	if p.BackboneBandwidth == 0 {
		p.BackboneBandwidth = 10 * netsim.Mbps
	}
	if p.BackboneDelay <= 0 {
		p.BackboneDelay = 10 * time.Millisecond
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	if p.Duration == 0 {
		p.Duration = 10 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	clusters := p.Rows * p.Cols
	access := netsim.LinkConfig{
		Bandwidth:    p.AccessBandwidth,
		Delay:        p.AccessDelay,
		QueuePackets: 100,
	}
	backbone := netsim.LinkConfig{
		Bandwidth:    p.BackboneBandwidth,
		Delay:        p.BackboneDelay,
		QueuePackets: 120,
	}
	spec := Spec{
		Name: "grid",
		Description: fmt.Sprintf("%d×%d cluster grid (%d nodes): per-cluster streams plus cross-cluster transfers",
			p.Rows, p.Cols, clusters*(1+p.HostsPerCluster)),
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	rname := func(c int) string { return fmt.Sprintf("r%d", c) }
	hname := func(c, i int) string { return fmt.Sprintf("c%dh%d", c, i) }
	for c := 0; c < clusters; c++ {
		spec.Routers = append(spec.Routers, rname(c))
		for i := 0; i < p.HostsPerCluster; i++ {
			spec.Links = append(spec.Links, LinkSpec{A: hname(c, i), B: rname(c), LinkConfig: access})
		}
	}
	for row := 0; row < p.Rows; row++ {
		for col := 0; col < p.Cols; col++ {
			c := row*p.Cols + col
			if col+1 < p.Cols {
				spec.Links = append(spec.Links, LinkSpec{A: rname(c), B: rname(c + 1), LinkConfig: backbone})
			}
			if row+1 < p.Rows {
				spec.Links = append(spec.Links, LinkSpec{A: rname(c), B: rname(c + p.Cols), LinkConfig: backbone})
			}
		}
	}
	for c := 0; c < clusters; c++ {
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindStream, From: hname(c, 0), To: hname(c, 1), CC: p.CC,
		})
		// Staggered cross-cluster transfers keep the backbone busy without
		// every cluster dialing in lockstep at t=0.
		spec.Workloads = append(spec.Workloads, Workload{
			Kind: KindBulk, From: hname(c, p.HostsPerCluster-1), To: hname((c+1)%clusters, 0),
			Bytes: 1 << 20, CC: p.CC,
			Start: time.Duration(c+1) * 50 * time.Millisecond,
		})
	}
	return spec
}

// WebMixParams parameterises the background web-mix scenario.
type WebMixParams struct {
	// Requests is the total number of web requests in the mix (default 48).
	Requests int
	// RatePerSec is the mean Poisson arrival rate (default 12 req/s).
	RatePerSec float64
	// MeanBytes is the mean response size (default 12 KB).
	MeanBytes int
	// CC selects the mix's congestion controller (default CM, which makes
	// the mix one shared macroflow — the paper's ensemble of short flows).
	CC string
	// Bottleneck configures the shared link (Dumbbell defaults apply).
	Bottleneck netsim.LinkConfig
	Duration   time.Duration
	Seed       int64
}

// WebMix builds a dumbbell whose first sender runs a web-like request mix —
// many short Poisson-arrival request/response flows — against a long-lived
// native TCP stream from the second sender. It is the "background web-like
// request mix" workload of the roadmap: with CC = cm every short request
// joins the sender's macroflow to d0 and inherits its congestion state
// instead of slow-starting from scratch.
func WebMix(p WebMixParams) Spec {
	if p.Requests <= 0 {
		p.Requests = 48
	}
	if p.RatePerSec <= 0 {
		p.RatePerSec = 12
	}
	if p.MeanBytes <= 0 {
		p.MeanBytes = 12 << 10
	}
	if p.CC == "" {
		p.CC = CCCM
	}
	spec := Dumbbell(DumbbellParams{
		Senders: 2, Receivers: 2,
		Bottleneck: p.Bottleneck,
		Duration:   p.Duration,
		Seed:       p.Seed,
	})
	spec.Name = "webmix"
	spec.Description = fmt.Sprintf("web-like request mix (%d Poisson requests at %.3g/s, mean %d B) vs one long native stream",
		p.Requests, p.RatePerSec, p.MeanBytes)
	spec.Workloads = []Workload{
		{Kind: KindWebMix, From: sname(0), To: dname(0),
			Flows: p.Requests, Rate: p.RatePerSec, Bytes: p.MeanBytes, CC: p.CC},
		{Kind: KindStream, From: sname(1), To: dname(1), CC: CCNative},
	}
	return spec
}

// PointToPointParams parameterises the two-host topology every experiment in
// the paper's evaluation uses.
type PointToPointParams struct {
	Sender, Receiver string
	Link             netsim.LinkConfig
	// Workloads is optional; Build-only users (the experiment runners)
	// attach their own traffic programmatically.
	Workloads []Workload
	Duration  time.Duration
	// WithCM installs a Congestion Manager on the sender even when no
	// declarative workload asks for one.
	WithCM bool
	Seed   int64
}

// PointToPoint builds sender<->receiver joined by one duplex link.
func PointToPoint(p PointToPointParams) Spec {
	if p.Sender == "" {
		p.Sender = "sender"
	}
	if p.Receiver == "" {
		p.Receiver = "receiver"
	}
	if p.Link.Bandwidth == 0 {
		p.Link.Bandwidth = 10 * netsim.Mbps
	}
	if p.Link.QueuePackets == 0 && p.Link.QueueBytes == 0 {
		p.Link.QueuePackets = 120
	}
	if p.Duration == 0 {
		p.Duration = 30 * time.Second
	}
	spec := Spec{
		Name:        "p2p",
		Description: fmt.Sprintf("point-to-point %s path", p.Link.Bandwidth),
		Links:       []LinkSpec{{A: p.Sender, B: p.Receiver, LinkConfig: p.Link}},
		Workloads:   p.Workloads,
		Duration:    p.Duration,
		Seed:        p.Seed,
	}
	if p.WithCM {
		spec.CMHosts = []string{p.Sender}
	}
	return spec
}

// ChurnParams parameterises the host-churn soak scenario: a small dumbbell
// under every class of fault at once — link flaps, CM restarts, dropped and
// delayed notifications, and a mobile receiver.
type ChurnParams struct {
	// RestartMean is the mean inter-restart time of s0's CM (default 3 s).
	RestartMean time.Duration
	// DropRate / DelayRate / Delay configure s1's notification faults
	// (defaults 0.05, 0.10 and 20 ms).
	DropRate  float64
	DelayRate float64
	Delay     time.Duration
	// MoveAt / Outage schedule d1's address change (defaults 2 s and 400 ms,
	// early enough that shortened CI runs still exercise both halves).
	MoveAt time.Duration
	Outage time.Duration
	// FlapMeanUp / FlapMeanDown drive the bottleneck's Poisson flaps
	// (defaults 4 s up, 300 ms down).
	FlapMeanUp   time.Duration
	FlapMeanDown time.Duration
	Duration     time.Duration
	Seed         int64
}

func (p *ChurnParams) fillDefaults() {
	if p.RestartMean <= 0 {
		p.RestartMean = 3 * time.Second
	}
	if p.DropRate == 0 {
		p.DropRate = 0.05
	}
	if p.DelayRate == 0 {
		p.DelayRate = 0.10
	}
	if p.Delay <= 0 {
		p.Delay = 20 * time.Millisecond
	}
	if p.MoveAt <= 0 {
		p.MoveAt = 2 * time.Second
	}
	if p.Outage <= 0 {
		p.Outage = 400 * time.Millisecond
	}
	if p.FlapMeanUp <= 0 {
		p.FlapMeanUp = 4 * time.Second
	}
	if p.FlapMeanDown <= 0 {
		p.FlapMeanDown = 300 * time.Millisecond
	}
	if p.Duration == 0 {
		p.Duration = 12 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// Churn builds the host-fault soak scenario:
//
//	s0, s1 -- left -- bottleneck -- right -- d0, d1
//
// s0 drives TCP CM traffic (a backlogged stream plus repeated bulk
// transfers) while its CM is crash-restarted by a Poisson process; s1 drives
// both layered UDP applications through a notification path that drops and
// delays grants and rate callbacks; the bottleneck flaps; and d1 changes
// address mid-run, killing in-flight packets and (policy "discard")
// congestion state about it. Every fault class of docs/ROBUSTNESS.md fires
// in one run, which is what makes it the soak-harness workload: if an
// invariant can break, this is where.
//
// Sweep axes rely on stable positions: Events[0] is s1's set-notify-faults
// and Generators[1] is s0's cm-restarts.
func Churn(p ChurnParams) Spec {
	p.fillDefaults()
	access := netsim.LinkConfig{
		Bandwidth:    100 * netsim.Mbps,
		Delay:        2 * time.Millisecond,
		QueuePackets: 300,
	}
	spec := Spec{
		Name: "churn",
		Description: fmt.Sprintf("dumbbell under host churn: CM restarts every ~%v, %.0f%%/%.0f%% notify drop/delay, bottleneck flaps, d1 moves at %v",
			p.RestartMean, p.DropRate*100, p.DelayRate*100, p.MoveAt),
		Routers:  []string{"left", "right"},
		CMHosts:  []string{"s0", "s1"},
		Duration: p.Duration,
		Seed:     p.Seed,
	}
	spec.Links = append(spec.Links,
		LinkSpec{A: "left", B: "right", LinkConfig: netsim.LinkConfig{
			Name:         "bottleneck",
			Bandwidth:    10 * netsim.Mbps,
			Delay:        20 * time.Millisecond,
			QueuePackets: 120,
		}},
		LinkSpec{A: "s0", B: "left", LinkConfig: access},
		LinkSpec{A: "s1", B: "left", LinkConfig: access},
		LinkSpec{A: "right", B: "d0", LinkConfig: access},
		LinkSpec{A: "right", B: "d1", LinkConfig: access},
	)
	spec.Workloads = []Workload{
		{Kind: KindStream, From: "s0", To: "d0", CC: CCCM},
		{Kind: KindBulk, From: "s0", To: "d0", Flows: 2, Bytes: 1 << 20, CC: CCCM},
		{Kind: KindUDPALF, From: "s1", To: "d1"},
		{Kind: KindUDPRate, From: "s1", To: "d1"},
	}
	spec.Events = []dynamics.Event{
		{At: 0, Kind: dynamics.SetNotifyFaults, Host: "s1",
			DropRate: p.DropRate, DelayRate: p.DelayRate, Delay: p.Delay},
		{At: p.MoveAt, Kind: dynamics.HostMove, Host: "d1", Outage: p.Outage},
	}
	spec.Generators = []dynamics.Generator{
		{Kind: dynamics.GenPoissonFlaps, Link: 0, MeanUp: p.FlapMeanUp, MeanDown: p.FlapMeanDown},
		{Kind: dynamics.GenCMRestarts, Host: "s0", Mean: p.RestartMean},
	}
	return spec
}
