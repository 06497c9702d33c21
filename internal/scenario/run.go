package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/app"
	"repro/internal/cm"
	"repro/internal/dynamics"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/simtime"
	"repro/internal/tcp"
)

// FlowResult reports one transport flow of a workload.
type FlowResult struct {
	Workload int    `json:"workload"`
	Flow     int    `json:"flow"`
	From     string `json:"from"`
	To       string `json:"to"`
	Port     int    `json:"port"`
	CC       string `json:"cc"`
	// Delivered is the number of payload bytes the receiver's application
	// saw in order.
	Delivered int64 `json:"delivered"`
	// Completed is true when a bulk flow delivered all its bytes and closed.
	Completed bool `json:"completed"`
	// Established and Finished are virtual timestamps (Finished is zero for
	// incomplete or streaming flows).
	Established time.Duration `json:"established"`
	Finished    time.Duration `json:"finished,omitempty"`
	// Elapsed is Finished-Established for completed flows, otherwise the
	// time from establishment to the end of the run.
	Elapsed         time.Duration `json:"elapsed"`
	ThroughputKBps  float64       `json:"throughput_kbps"`
	Retransmissions int64         `json:"retransmissions"`
	Timeouts        int64         `json:"timeouts"`
	SRTT            time.Duration `json:"srtt"`
	// LayerSwitches counts encoding-layer changes of a layered UDP workload
	// (KindUDPRate / KindUDPALF); zero for TCP flows.
	LayerSwitches int64 `json:"layer_switches,omitempty"`
	// Error reports a flow that failed to start (e.g. a dial rejected after
	// the run began); such flows are never Completed.
	Error string `json:"error,omitempty"`
}

// LinkResult reports one direction of one link.
type LinkResult struct {
	Name string `json:"name"`
	netsim.LinkStats
}

// HostResult reports a node's IP-layer counters.
type HostResult struct {
	Name   string `json:"name"`
	Router bool   `json:"router,omitempty"`
	node.HostStats
}

// CMResult reports one host's Congestion Manager.
type CMResult struct {
	Host       string `json:"host"`
	Macroflows int    `json:"macroflows"`
	Flows      int    `json:"flows"`
	// Epoch is the CM's restart count at end of run.
	Epoch int64 `json:"epoch,omitempty"`
	cm.Accounting
	// Audit is the end-of-run liveness/conservation snapshot the faults
	// invariant checker examines (stranded flows, leaked requests, grants
	// still outstanding).
	PendingRequests   int `json:"pending_requests"`
	UnclaimedGrants   int `json:"unclaimed_grants"`
	OutstandingGrants int `json:"outstanding_grants"`
	StrandedFlows     int `json:"stranded_flows"`
	NegativePending   int `json:"negative_pending"`
	// Notification fault-injection counters of the host's libcm instances.
	libcm.InjectorStats
}

// Result is the outcome of one scenario run. It is a pure function of the
// Spec: all slices are in deterministic order and contain only value types,
// so results can be compared with reflect.DeepEqual or byte-compared after
// JSON encoding.
type Result struct {
	Scenario string        `json:"scenario"`
	EndTime  time.Duration `json:"end_time"`
	Flows    []FlowResult  `json:"flows"`
	Links    []LinkResult  `json:"links"`
	Hosts    []HostResult  `json:"hosts"`
	CMs      []CMResult    `json:"cms,omitempty"`
	// Events records the executed dynamics timeline: which scheduled network
	// events fired and how many routing-table entries each changed.
	Events []dynamics.Record `json:"events,omitempty"`
	// Series holds the sampled time series of the spec's declarative probes,
	// one per Spec.Probes entry in declaration order. Every sample is taken
	// at an executor barrier, so the series — like every other Result field —
	// are byte-identical across serial, parallel and sharded execution
	// (shard.* probes excepted: they describe the execution plan itself).
	Series []probe.Series `json:"series,omitempty"`
	// Routing summarises the distance-vector control plane of a protocol-mode
	// run (RouteSync: "protocol"): message statistics, the convergence
	// verdict and the end-of-run forwarding audit. Nil in oracle mode.
	Routing *RoutingResult `json:"routing,omitempty"`
	// Perf is the per-event-kind wall-clock cost attribution, set by Finish
	// when EnableProfiling was armed. Unlike every other field it describes
	// the execution, not the simulation: byte-identity comparisons strip it.
	Perf *Perf `json:"perf,omitempty"`
}

// Totals are a Result's whole-run counters, summed across its flows, links,
// hosts and CMs: the run report's counters and the sweep's total.* metrics.
type Totals struct {
	EndTime            time.Duration `json:"end_time"`
	CompletedFlows     int           `json:"completed_flows"`
	DeliveredBytes     int64         `json:"delivered_bytes"`
	MeanThroughputKBps float64       `json:"mean_throughput_kbps"`
	Retransmissions    int64         `json:"retransmissions"`
	Timeouts           int64         `json:"timeouts"`

	SentPackets     int   `json:"sent_packets"`
	SentBytes       int64 `json:"sent_bytes"`
	DeliveredOctets int64 `json:"delivered_octets"`
	QueueDrops      int   `json:"queue_drops"`
	BernoulliDrops  int   `json:"bernoulli_drops"`
	BurstDrops      int   `json:"burst_drops"`
	DownDrops       int   `json:"down_drops"`

	ForwardedPackets int `json:"forwarded_packets"`
	// RouteDrops sums node.HostStats.RouteDrops across hosts.
	RouteDrops int `json:"route_drops"`

	DynamicsEvents int `json:"dynamics_events"`

	GrantsIssued    int64 `json:"grants_issued,omitempty"`
	GrantsReclaimed int64 `json:"grants_reclaimed,omitempty"`
	Notifies        int64 `json:"notifies,omitempty"`
	CMRestarts      int64 `json:"cm_restarts,omitempty"`
	StaleFlowCalls  int64 `json:"stale_flow_calls,omitempty"`
}

// Totals sums the Result's counters in one pass over each slice. It
// allocates nothing: the invariant checker takes it on every result.
func (r *Result) Totals() Totals {
	t := Totals{EndTime: r.EndTime, DynamicsEvents: len(r.Events)}
	for i := range r.Flows {
		f := &r.Flows[i]
		if f.Completed {
			t.CompletedFlows++
		}
		t.DeliveredBytes += f.Delivered
		t.MeanThroughputKBps += f.ThroughputKBps
		t.Retransmissions += f.Retransmissions
		t.Timeouts += f.Timeouts
	}
	if n := len(r.Flows); n > 0 {
		t.MeanThroughputKBps /= float64(n)
	}
	for i := range r.Links {
		l := &r.Links[i]
		t.SentPackets += l.SentPackets
		t.SentBytes += l.SentBytes
		t.DeliveredOctets += l.DeliveredOctets
		t.QueueDrops += l.QueueDrops
		t.BernoulliDrops += l.BernoulliDrops
		t.BurstDrops += l.BurstDrops
		t.DownDrops += l.DownDrops
	}
	for i := range r.Hosts {
		h := &r.Hosts[i]
		t.ForwardedPackets += h.ForwardedPackets
		t.RouteDrops += h.RouteDrops()
	}
	for i := range r.CMs {
		c := &r.CMs[i]
		t.GrantsIssued += c.GrantsIssued
		t.GrantsReclaimed += c.GrantsReclaimed
		t.Notifies += c.Notifies
		t.CMRestarts += c.Restarts
		t.StaleFlowCalls += c.StaleFlowCalls
	}
	return t
}

// flowDriver tracks one declarative flow while the simulation runs: its result
// in the making, the listener waiting for its one connection and the dialing
// endpoint while that connection lives. The drivers of a workload are one slab
// (workloadRun.flows) that lives as long as the Sim; the endpoints are not part
// of it — each is its own object and goes when its connection has closed.
type flowDriver struct {
	res FlowResult
	wl  *workloadRun
	// ep is the dialing endpoint while its connection lives; once it reaches
	// TIME_WAIT its counters are folded into res and the handle is dropped,
	// so a finished flow costs its slab entry and nothing else.
	ep *tcp.Endpoint
	// lis accepts the flow's connection and unbinds when it has.
	lis tcp.Listener
	// start is when the flow dials (zero: when the workloads start) and
	// wantBytes what a bulk or web flow transfers before it closes (zero for a
	// stream, which stays backlogged).
	start     time.Duration
	wantBytes int64
	// udpFinish, set for layered UDP workloads, folds the application's
	// end-of-run counters into the flow result; udpStarted records that the
	// stream's (possibly delayed) start actually fired.
	udpFinish  func(fr *FlowResult)
	udpStarted bool
}

// workloadRun is what the flows of one TCP workload share: what they are,
// where they run, and the position of the dial chain (see armDials).
type workloadRun struct {
	sim                *Sim
	w                  *Workload
	fromClock, toClock *simtime.Scheduler
	flows              []flowDriver
	// next is the first flow that has not dialed yet.
	next int
}

// setTCPStats copies the dialing endpoint's loss-recovery counters and RTT
// estimate into the flow's result. None of them changes after TIME_WAIT.
func (fr *FlowResult) setTCPStats(ep *tcp.Endpoint) {
	st := ep.Stats()
	fr.Retransmissions = st.Retransmissions
	fr.Timeouts = st.Timeouts
	fr.SRTT = st.SRTT
}

// Run builds the spec and executes its workloads for the configured
// duration, returning the collected result. A spec with Shards > 1 executes
// on shard workers under conservative synchronization; the Result is
// byte-identical either way.
func Run(spec Spec) (*Result, error) {
	sim, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if err := sim.Start(); err != nil {
		return nil, err
	}
	sim.RunToEnd()
	return sim.Finish(), nil
}

// Start instantiates the spec's declarative workloads without running the
// simulation. Callers that need to observe the simulation mid-run (the CM
// dynamics tests) use Build + Start, advance it with RunUntil, and then call
// Finish.
func (s *Sim) Start() error {
	if s.started {
		return fmt.Errorf("scenario %q: Start called twice", s.Spec.Name)
	}
	s.started = true
	drivers, err := s.startWorkloads()
	if err != nil {
		return err
	}
	s.drivers = drivers
	// Probes, the protocol convergence baseline (its deadline depends on the
	// fully expanded event list) and snapshots join the barrier schedule,
	// which Build started with the dynamics events; the rank of each action,
	// not this order, decides what fires first at a shared barrier.
	if err := s.installProbes(); err != nil {
		return err
	}
	if s.proto != nil {
		s.proto.arm()
	}
	s.armSnapshots()
	return nil
}

// Finish freezes the simulation state into a Result. The scheduler is not
// advanced; Finish reports whatever has happened up to the current virtual
// time.
func (s *Sim) Finish() *Result {
	res := s.collect(s.drivers)
	res.Perf = s.perfBlock()
	return res
}

// startWorkloads instantiates every declarative flow: a listener on the To
// host, a dialer on the From host (delayed by Start), and the send/close
// behaviour of the workload kind.
func (s *Sim) startWorkloads() ([]*flowDriver, error) {
	total := 0
	for wi := range s.Spec.Workloads {
		total += s.Spec.Workloads[wi].Flows
	}
	drivers := make([]*flowDriver, 0, total)
	// Flows listen on consecutive ports from 5000, in declaration order.
	nextPort := 5000
	for wi := range s.Spec.Workloads {
		w := &s.Spec.Workloads[wi]
		// A web mix pre-samples every request's arrival time and size with a
		// seeded RNG at start time, so the plan is a pure function of the
		// spec — identical across serial, parallel and sharded execution.
		var web *webMixPlan
		if w.Kind == KindWebMix {
			web = planWebMix(s.Spec.Seed, wi, w)
		}
		// Each side of a flow timestamps with its own host's clock: the two
		// differ only in a sharded build, where the receive-side callbacks run
		// on the To host's shard and the dial-side ones on the From host's.
		wl := &workloadRun{
			sim: s, w: w,
			fromClock: s.clockFor(w.From), toClock: s.clockFor(w.To),
			flows: make([]flowDriver, w.Flows),
		}
		for fi := range wl.flows {
			port := nextPort
			nextPort++
			d := &wl.flows[fi]
			d.wl = wl
			d.res = FlowResult{
				Workload: wi, Flow: fi,
				From: w.From, To: w.To, Port: port, CC: w.CC,
			}
			flowBytes := w.Bytes
			d.start = w.Start
			if web != nil {
				flowBytes, d.start = web.bytes[fi], web.start[fi]
			}
			if w.Kind == KindBulk || w.Kind == KindWebMix {
				d.wantBytes = int64(flowBytes)
			}
			drivers = append(drivers, d)

			var err error
			if udpKind(w.Kind) {
				err = s.startUDPFlow(w, d, port)
			} else {
				err = d.lis.Listen(s.net.Host(w.To), port,
					tcp.Config{DelayedAck: true, RecvWindow: w.RecvWindow}, flowAccepted, d)
				if err == nil && d.start <= 0 {
					// A dial delayed past the start of the run records a
					// failure on the flow's result (see armDials); one that
					// fails now aborts the run.
					wl.next = fi + 1
					err = d.dial()
				}
			}
			if err != nil {
				return nil, fmt.Errorf("scenario %q: workload %d flow %d: %w", s.Spec.Name, wi, fi, err)
			}
		}
		if !udpKind(w.Kind) {
			wl.armDials()
		}
	}
	return drivers, nil
}

// dial opens the flow's connection from the From host.
func (d *flowDriver) dial() error {
	s, w := d.wl.sim, d.wl.w
	cfg := tcp.Config{DelayedAck: true, RecvWindow: w.RecvWindow, CongestionControl: tcp.CCNative}
	if w.CC == CCCM {
		cfg.CongestionControl = tcp.CCCM
		cfg.CM = s.cms[w.From]
	}
	ep, err := tcp.Dial(s.net.Host(w.From), netsim.Addr{Host: w.To, Port: d.res.Port}, cfg)
	if err != nil {
		d.res.Error = err.Error()
		return err
	}
	d.ep = ep
	ep.SetOwner(d)
	ep.OnTimeWait(flowTimeWait)
	ep.OnEstablished(flowEstablished)
	return nil
}

// The callbacks of a flow's two endpoints. They are shared by every flow and
// find theirs through the owner word, which is the flow's driver: a slab entry
// that outlives both endpoints, so an endpoint pointing at it pins nothing, and
// the driver lets go of the dialing endpoint in flowTimeWait and never holds
// the accepted one.

func flowAccepted(ep *tcp.Endpoint, owner any) {
	d := owner.(*flowDriver)
	// A flow is one connection: the listener has done its work.
	d.lis.Close()
	ep.SetOwner(d)
	ep.OnReceive(flowReceived)
	ep.OnClosed(flowPeerClosed)
}

func flowReceived(_ *tcp.Endpoint, owner any, n int) {
	owner.(*flowDriver).res.Delivered += int64(n)
}

// flowPeerClosed answers the peer's FIN with our own: both ends reach
// TIME_WAIT and the dialer's CM flow is closed (cm_close).
func flowPeerClosed(ep *tcp.Endpoint, owner any) {
	d := owner.(*flowDriver)
	d.res.Finished = d.wl.toClock.Now()
	ep.Close()
}

func flowTimeWait(ep *tcp.Endpoint, owner any) {
	d := owner.(*flowDriver)
	d.res.setTCPStats(ep)
	d.ep = nil
}

func flowEstablished(ep *tcp.Endpoint, owner any) {
	d := owner.(*flowDriver)
	d.res.Established = d.wl.fromClock.Now()
	if d.wl.w.Kind == KindStream {
		// Effectively unbounded: backlogged for the whole run (1 GB, an int
		// even on 32-bit platforms).
		ep.Send(1 << 30)
		return
	}
	ep.Send(int(d.wantBytes))
	ep.Close()
}

// armDials keeps one pending scheduler event for all of a workload's delayed
// dials: firing it dials every flow that is due and schedules the next start.
// Start times are nondecreasing in flow order (a web mix's cumulative arrivals,
// or one Start shared by all flows), and flows due at the same instant dial
// back to back in flow order, exactly as separate events would — they would be
// consecutive in the scheduler's insertion order. A web mix of n requests thus
// keeps one event in the heap instead of n. A dial that fails mid-run is
// recorded on the flow's result instead of aborting the whole scenario.
func (wl *workloadRun) armDials() {
	if wl.next < len(wl.flows) {
		wl.fromClock.Schedule(wl.flows[wl.next].start, simtime.KindWorkloadApp, fireDials, wl)
	}
}

func fireDials(x any) {
	wl := x.(*workloadRun)
	for now := wl.fromClock.Now(); wl.next < len(wl.flows) && wl.flows[wl.next].start <= now; wl.next++ {
		_ = wl.flows[wl.next].dial()
	}
	wl.armDials()
}

// webMixPlan holds the pre-sampled arrivals and sizes of one KindWebMix
// workload: request fi dials at start[fi] and transfers bytes[fi].
type webMixPlan struct {
	start []time.Duration
	bytes []int
}

// planWebMix samples the workload's Poisson arrival process and per-request
// sizes. Arrivals are cumulative Exp(1/Rate) interarrival gaps offset by the
// workload's Start; sizes are exponential around the mean Bytes, floored at
// 512 bytes so every request carries at least a small response. The RNG seed
// derives deterministically from the spec seed and the workload's position.
func planWebMix(specSeed int64, wi int, w *Workload) *webMixPlan {
	rng := rand.New(rand.NewSource(specSeed + int64(wi+1)*subSeedStride + 0x9e37))
	p := &webMixPlan{
		start: make([]time.Duration, w.Flows),
		bytes: make([]int, w.Flows),
	}
	t := w.Start
	for i := 0; i < w.Flows; i++ {
		t += time.Duration(rng.ExpFloat64() / w.Rate * float64(time.Second))
		p.start[i] = t
		size := int(rng.ExpFloat64() * float64(w.Bytes))
		if size < 512 {
			size = 512
		}
		p.bytes[i] = size
	}
	return p
}

// startUDPFlow attaches one layered UDP streaming application (§3.4/§3.5):
// a feedback-generating client on the To host and a libcm-driven layered
// server on the From host, in the rate-callback (KindUDPRate) or ALF
// (KindUDPALF) mode. Each flow gets its own libcm instance — one application,
// one control socket — bound to the From host's Congestion Manager.
func (s *Sim) startUDPFlow(w *Workload, d *flowDriver, port int) error {
	client, err := app.NewReceiver(s.net.Host(w.To), port, app.FeedbackPolicy{})
	if err != nil {
		return err
	}
	mode := app.ModeRateCallback
	if w.Kind == KindUDPALF {
		mode = app.ModeALF
	}
	fromClock := s.clockFor(w.From)
	lib := libcm.New(s.cms[w.From], fromClock, libcm.ModeAuto)
	lib.SetInjector(s.injectors[w.From])
	srv, err := app.NewLayeredServer(s.net.Host(w.From), lib, client.Addr(), app.LayeredConfig{Mode: mode})
	if err != nil {
		return err
	}
	d.udpFinish = func(fr *FlowResult) {
		fr.Delivered = client.TotalBytes()
		fr.LayerSwitches = srv.Stats().LayerSwitches
	}
	start := func(any) {
		d.udpStarted = true
		d.res.Established = fromClock.Now()
		srv.Start()
	}
	if w.Start > 0 {
		fromClock.Schedule(w.Start, simtime.KindWorkloadApp, start, nil)
	} else {
		start(nil)
	}
	return nil
}

// collect freezes the simulation state into a Result.
func (s *Sim) collect(drivers []*flowDriver) *Result {
	res := &Result{
		Scenario: s.Spec.Name, EndTime: s.now(),
		Links: make([]LinkResult, 0, 2*len(s.duplexes)),
		Hosts: make([]HostResult, 0, len(s.nodeNames)),
	}
	if len(drivers) > 0 { // a run without workloads reports no flows, not an empty list
		res.Flows = make([]FlowResult, len(drivers))
	}
	for i, d := range drivers {
		fr := &res.Flows[i]
		*fr = d.res
		if d.udpFinish != nil {
			// A layered UDP stream: fold in the application counters. The
			// stream never completes; it runs from its start time to the end.
			// A stream whose delayed start never fired reports zero elapsed.
			d.udpFinish(fr)
			if d.udpStarted {
				fr.Elapsed = s.now() - fr.Established
			}
		} else {
			if d.wantBytes > 0 && fr.Delivered >= d.wantBytes && fr.Finished > 0 {
				fr.Completed = true
				fr.Elapsed = fr.Finished - fr.Established
			} else {
				fr.Finished = 0
				if fr.Established > 0 {
					fr.Elapsed = s.now() - fr.Established
				}
			}
			if d.ep != nil {
				fr.setTCPStats(d.ep)
			}
		}
		if fr.Elapsed > 0 {
			fr.ThroughputKBps = float64(fr.Delivered) / fr.Elapsed.Seconds() / 1024
		}
	}
	for _, d := range s.duplexes {
		for _, l := range [2]*netsim.Link{d.Forward, d.Reverse} {
			res.Links = append(res.Links, LinkResult{
				Name:      l.Config().Name,
				LinkStats: l.Stats(),
			})
		}
	}
	for _, name := range s.nodeNames {
		h := s.net.Host(name)
		res.Hosts = append(res.Hosts, HostResult{Name: name, Router: h.Forwarding(), HostStats: h.Stats()})
	}
	for _, host := range s.cmHosts {
		c := s.cms[host]
		audit := c.Audit()
		cr := CMResult{
			Host:              host,
			Macroflows:        c.MacroflowCount(),
			Flows:             c.FlowCount(),
			Epoch:             c.Epoch(),
			Accounting:        c.Accounting(),
			PendingRequests:   audit.PendingRequests,
			UnclaimedGrants:   audit.UnclaimedGrants,
			OutstandingGrants: audit.OutstandingGrants,
			StrandedFlows:     audit.StrandedFlows,
			NegativePending:   audit.NegativePending,
		}
		if inj := s.injectors[host]; inj != nil {
			cr.InjectorStats = inj.Stats()
		}
		res.CMs = append(res.CMs, cr)
	}
	res.Events = slices.Clone(s.events)
	for _, ser := range s.series {
		res.Series = append(res.Series, ser.Freeze())
	}
	if s.proto != nil {
		res.Routing = s.proto.result()
	}
	return res
}
