package scenario

import (
	"fmt"
	"math/rand"
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
	// ECNMarked counts CE marks applied by this link's queue.
	ECNMarked int `json:"ecn_marked"`
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
	// one per Spec.Probes entry in declaration order. Sampling runs on the
	// simulation's virtual clock, so the series — like every other Result
	// field — are byte-identical across serial, parallel and sharded
	// execution (shard.* probes excepted: they describe the execution plan
	// itself).
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

// flowDriver tracks one declarative flow while the simulation runs.
type flowDriver struct {
	res *FlowResult
	// ep is the dialing endpoint while its connection lives; once it reaches
	// TIME_WAIT its counters are folded into res and the handle is dropped,
	// so a finished flow costs its result and nothing else.
	ep        *tcp.Endpoint
	wantBytes int64
	// udpFinish, set for layered UDP workloads, folds the application's
	// end-of-run counters into the flow result; udpStarted records that the
	// stream's (possibly delayed) start actually fired.
	udpFinish  func(fr *FlowResult)
	udpStarted bool
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
// scheduler. Callers that need to observe the simulation mid-run (the
// adaptation-under-failure experiment, the CM dynamics tests) use
// Build + Start, drive the scheduler themselves, and then call Finish.
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
	// Probes install after the workloads so their sampling events land behind
	// every workload event in per-scheduler insertion order — the same
	// relative order in serial and sharded builds.
	if err := s.installProbes(); err != nil {
		return err
	}
	s.installSnapshots()
	// The protocol convergence deadline depends on the fully expanded event
	// list; arming it registers its baseline capture on the observation
	// schedule, which is then frozen.
	if s.proto != nil {
		s.proto.arm()
	}
	s.finishObservers()
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
	var drivers []*flowDriver
	for wi := range s.Spec.Workloads {
		w := &s.Spec.Workloads[wi]
		// A web mix pre-samples every request's arrival time and size with a
		// seeded RNG at start time, so the plan is a pure function of the
		// spec — identical across serial, parallel and sharded execution.
		var web *webMixPlan
		if w.Kind == KindWebMix {
			web = planWebMix(s.Spec.Seed, wi, w)
		}
		// Dials delayed past the start of the run go out from one pending
		// event per workload (see dialChain), not one event per flow.
		chain := &dialChain{clock: s.clockFor(w.From)}
		for fi := 0; fi < w.Flows; fi++ {
			port := w.Port + fi
			d := &flowDriver{
				res: &FlowResult{
					Workload: wi, Flow: fi,
					From: w.From, To: w.To, Port: port, CC: w.CC,
				},
			}
			flowBytes, flowStart := w.Bytes, w.Start
			if web != nil {
				flowBytes, flowStart = web.bytes[fi], web.start[fi]
			}
			if w.Kind == KindBulk || w.Kind == KindWebMix {
				d.wantBytes = int64(flowBytes)
			}
			drivers = append(drivers, d)

			if udpKind(w.Kind) {
				if err := s.startUDPFlow(w, d, port); err != nil {
					return nil, fmt.Errorf("scenario %q: workload %d flow %d: %w", s.Spec.Name, wi, fi, err)
				}
				continue
			}

			// Each side of the flow timestamps with its own host's clock: the
			// two differ only in a sharded build, where the receive-side
			// callbacks run on the To host's shard and the dial-side ones on
			// the From host's.
			fromClock, toClock := s.clockFor(w.From), s.clockFor(w.To)
			_, err := tcp.Listen(s.net.Host(w.To), port,
				tcp.Config{DelayedAck: true, RecvWindow: w.RecvWindow},
				func(ep *tcp.Endpoint) {
					ep.OnReceive(func(n int) { d.res.Delivered += int64(n) })
					// The peer's FIN is answered with our own: both ends reach
					// TIME_WAIT and the dialer's CM flow is closed (cm_close).
					ep.OnClosed(func() {
						d.res.Finished = toClock.Now()
						ep.Close()
					})
				})
			if err != nil {
				return nil, fmt.Errorf("scenario %q: workload %d flow %d: %w", s.Spec.Name, wi, fi, err)
			}

			cfg := tcp.Config{
				DelayedAck: true,
				RecvWindow: w.RecvWindow,
			}
			if w.CC == CCCM {
				cfg.CongestionControl = tcp.CCCM
				cfg.CM = s.cms[w.From]
			} else {
				cfg.CongestionControl = tcp.CCNative
			}
			bytes, kind := flowBytes, w.Kind
			dial := func() error {
				ep, err := tcp.Dial(s.net.Host(w.From), netsim.Addr{Host: w.To, Port: port}, cfg)
				if err != nil {
					d.res.Error = err.Error()
					return err
				}
				d.ep = ep
				ep.OnTimeWait(func() {
					d.res.setTCPStats(d.ep)
					d.ep = nil
				})
				ep.OnEstablished(func() {
					d.res.Established = fromClock.Now()
					switch kind {
					case KindStream:
						// Effectively unbounded: backlogged for the whole
						// run (1 GB, an int even on 32-bit platforms).
						ep.Send(1 << 30)
					default:
						ep.Send(bytes)
						ep.Close()
					}
				})
				return nil
			}
			if flowStart > 0 {
				// The dial happens mid-run; a failure is recorded on the
				// flow's result instead of aborting the whole scenario.
				chain.add(flowStart, dial)
			} else if err := dial(); err != nil {
				return nil, fmt.Errorf("scenario %q: workload %d flow %d: %w", s.Spec.Name, wi, fi, err)
			}
		}
		chain.arm()
	}
	return drivers, nil
}

// dialChain dials one workload's delayed flows in start order from a single
// pending scheduler event: firing dials every flow that is due and schedules
// the next start. Start times are nondecreasing in flow order (a web mix's
// cumulative arrivals, or one Start shared by all flows), and flows due at the
// same instant dial back to back in flow order, exactly as their separate
// events did — those were consecutive in the scheduler's insertion order. A
// web mix of n requests thus keeps one event in the heap instead of n.
type dialChain struct {
	clock *simtime.Scheduler
	start []time.Duration
	dial  []func() error
	next  int
}

func (c *dialChain) add(start time.Duration, dial func() error) {
	c.start = append(c.start, start)
	c.dial = append(c.dial, dial)
}

// arm schedules the next due dial, if any is left.
func (c *dialChain) arm() {
	if c.next < len(c.dial) {
		c.clock.AtArgKind(c.start[c.next], simtime.KindWorkloadApp, fireDialChain, c)
	}
}

func fireDialChain(x any) {
	c := x.(*dialChain)
	for now := c.clock.Now(); c.next < len(c.dial) && c.start[c.next] <= now; c.next++ {
		_ = c.dial[c.next]()
		c.dial[c.next] = nil // the closure holds the flow's whole dial state
	}
	c.arm()
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
	client, err := app.NewLayeredClient(s.net.Host(w.To), port, app.FeedbackPolicy{}, 0)
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
	start := func() {
		d.udpStarted = true
		d.res.Established = fromClock.Now()
		srv.Start()
	}
	if w.Start > 0 {
		fromClock.AtKind(w.Start, simtime.KindWorkloadApp, start)
	} else {
		start()
	}
	return nil
}

// collect freezes the simulation state into a Result.
func (s *Sim) collect(drivers []*flowDriver) *Result {
	res := &Result{Scenario: s.Spec.Name, EndTime: s.now()}
	for _, d := range drivers {
		fr := *d.res
		if d.udpFinish != nil {
			// A layered UDP stream: fold in the application counters. The
			// stream never completes; it runs from its start time to the end.
			// A stream whose delayed start never fired reports zero elapsed.
			d.udpFinish(&fr)
			if d.udpStarted {
				fr.Elapsed = s.now() - fr.Established
			}
			if fr.Elapsed > 0 {
				fr.ThroughputKBps = float64(fr.Delivered) / fr.Elapsed.Seconds() / 1024
			}
			res.Flows = append(res.Flows, fr)
			continue
		}
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
		if fr.Elapsed > 0 {
			fr.ThroughputKBps = float64(fr.Delivered) / fr.Elapsed.Seconds() / 1024
		}
		res.Flows = append(res.Flows, fr)
	}
	for _, d := range s.duplexes {
		for _, l := range []*netsim.Link{d.Forward, d.Reverse} {
			res.Links = append(res.Links, LinkResult{
				Name:      l.Config().Name,
				LinkStats: l.Stats(),
				ECNMarked: l.QueueStats().ECNMarked,
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
	if s.timeline != nil {
		res.Events = s.timeline.Records()
	}
	for _, sp := range s.samplers {
		res.Series = append(res.Series, sp.series.Freeze())
	}
	if s.proto != nil {
		res.Routing = s.proto.result()
	}
	return res
}
