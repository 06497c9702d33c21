package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cm"
	"repro/internal/faults"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/udp"
)

// The api.* metrics are closed loops on each layer's exported functions: one
// caller, the next call issued when the previous one returns. They depend on
// no workload and no seed.

// apiBudget is how long each loop is timed for.
const apiBudget = 80 * time.Millisecond

// timeLoop calls fn(n) with growing n until one call lasts at least budget,
// and returns that call's wall nanoseconds and heap allocations per
// iteration. fn runs n iterations of the loop body.
func timeLoop(budget time.Duration, fn func(n int)) (nsOp, allocsOp float64) {
	fn(1) // first call pays for lazy set-up
	var m0, m1 runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		fn(n)
		d := time.Since(start)
		if d >= budget || n >= 1<<30 {
			runtime.ReadMemStats(&m1)
			return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
}

// runAPILoops measures every loop of apiLoops and returns the per-layer
// metrics they define, plus cm.overhead_ns_per_pkt (the cost of routing a TCP
// segment's congestion control through the CM, the paper's API-overhead
// number for this simulator).
func runAPILoops(budget time.Duration) (map[string]float64, error) {
	bodies, err := apiLoopBodies()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range apiLoops {
		body := bodies[l.name]
		if body.fn == nil {
			return nil, fmt.Errorf("api loop %q has no body", l.name)
		}
		ns, allocs := timeLoop(budget, body.fn)
		// A loop whose iteration is a whole simulation reports per unit of
		// that simulation's work (segments, routing messages).
		ns, allocs = ns/body.perIter, allocs/body.perIter
		if l.unit == "ms" {
			ns /= 1e6
		}
		out[l.name+"_"+l.unit] = ns
		out[l.name+"_allocs_op"] = allocs
	}
	out["cm.overhead_ns_per_pkt"] = out["api.tcp_cm.segment_ns"] - out["api.tcp.segment_ns"]
	return out, nil
}

type loopBody struct {
	fn      func(n int)
	perIter float64 // units of work in one iteration
}

func unit(fn func(n int)) loopBody { return loopBody{fn, 1} }

// newAPICM returns a CM with n open flows whose window never closes.
func newAPICM(n int) (*cm.CM, []cm.FlowID) {
	sched := simtime.NewScheduler()
	c := cm.New(sched, sched)
	dst := netsim.Addr{Host: "server", Port: 80}
	ids := make([]cm.FlowID, n)
	for i := range ids {
		ids[i] = c.Open(netsim.ProtoTCP, netsim.Addr{Host: "client", Port: 1000 + i}, dst)
		c.RegisterSend(ids[i], func(f cm.FlowID) { c.Notify(f, 1500) })
	}
	c.Update(ids[0], 0, 1<<24, cm.NoLoss, time.Millisecond)
	return c, ids
}

// tcpSegmentLoop runs one stream over one lossless link for a fixed simulated
// time; the unit of work is a data segment crossing the forward link.
func tcpSegmentLoop(cc string) (loopBody, error) {
	spec := scenario.PointToPoint(scenario.PointToPointParams{
		Link:      netsim.LinkConfig{Bandwidth: 1000 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 1000},
		Workloads: []scenario.Workload{{Kind: scenario.KindStream, From: "sender", To: "receiver", CC: cc}},
		Duration:  100 * time.Millisecond,
	})
	res, err := scenario.Run(spec)
	if err != nil {
		return loopBody{}, err
	}
	segments := float64(res.Links[0].SentPackets)
	if segments == 0 {
		return loopBody{}, fmt.Errorf("tcp %s segment loop sent nothing", cc)
	}
	return loopBody{perIter: segments, fn: func(n int) {
		for i := 0; i < n; i++ {
			if _, err := scenario.Run(spec); err != nil {
				panic(err) // the same spec ran a moment ago
			}
		}
	}}, nil
}

func apiLoopBodies() (map[string]loopBody, error) {
	bodies := map[string]loopBody{}
	nop := func() {}

	{
		s := simtime.NewScheduler()
		bodies["api.simtime.schedule_fire"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				s.After(time.Microsecond, nop)
				s.Step()
			}
		})
	}
	{
		const population = 4096
		s := simtime.NewScheduler()
		events := make([]*simtime.Event, population)
		for i := range events {
			events[i] = s.At(time.Hour+time.Duration(i)*time.Millisecond, nop)
		}
		next := 0
		bodies["api.simtime.churn_4k"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				events[next].Cancel()
				events[next] = s.At(time.Hour, nop)
				next = (next + 1) % population
				s.After(0, nop)
				s.Step()
			}
		})
	}
	{
		sched := simtime.NewScheduler()
		sink := netsim.ReceiverFunc(func(p *netsim.Packet) { p.Release() })
		l := netsim.NewLink(sched, netsim.LinkConfig{
			Bandwidth: 100 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 64,
		}, sink)
		bodies["api.netsim.link_send_deliver"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				p := netsim.NewPacket()
				p.Size = 1500
				l.Send(p)
				sched.Run()
			}
		})
	}
	{
		// src -> r -> dst: the router relays, the destination has no
		// listener and releases the packet.
		sched := simtime.NewScheduler()
		nw := node.NewNetwork(sched)
		cfg := netsim.LinkConfig{Bandwidth: 100 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 64}
		nw.ConnectDuplex("src", "r", cfg)
		d2 := nw.ConnectDuplex("r", "dst", cfg)
		router := nw.Router("r")
		router.AddRoute("dst", d2.Forward)
		bodies["api.node.forward_hop"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				p := netsim.NewPacket()
				p.Proto = netsim.ProtoUDP
				p.Src = netsim.Addr{Host: "src", Port: 1}
				p.Dst = netsim.Addr{Host: "dst", Port: 2}
				p.Size = 1500
				p.TTL = netsim.DefaultTTL
				router.Receive(p)
				sched.Run()
			}
		})
	}
	for _, l := range []struct{ name, cc string }{
		{"api.tcp.segment", scenario.CCNative}, {"api.tcp_cm.segment", scenario.CCCM},
	} {
		body, err := tcpSegmentLoop(l.cc)
		if err != nil {
			return nil, err
		}
		bodies[l.name] = body
	}
	{
		sched := simtime.NewScheduler()
		nw := node.NewNetwork(sched)
		nw.ConnectDuplex("sender", "receiver", netsim.LinkConfig{
			Bandwidth: 100 * netsim.Mbps, Delay: time.Millisecond, QueuePackets: 64,
		})
		mgr := cm.New(sched, sched)
		nw.Host("sender").SetTransmitNotifier(mgr)
		if _, err := udp.NewSocket(nw.Host("receiver"), 9000); err != nil {
			return nil, err
		}
		sock, err := udp.NewCCSocket(nw.Host("sender"), 0, netsim.Addr{Host: "receiver", Port: 9000}, mgr, 64)
		if err != nil {
			return nil, err
		}
		sock.Update(0, 1<<24, cm.NoLoss, time.Millisecond)
		d := &udp.Datagram{Size: 1000}
		bodies["api.udp.cc_send"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				sock.Send(d)
				sched.Run()
				sock.Update(d.Size, d.Size, cm.NoLoss, 0)
			}
		})
	}
	{
		c, ids := newAPICM(1)
		bodies["api.cm.request_grant_notify"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				c.Request(ids[0])
				c.Update(ids[0], 1500, 1500, cm.NoLoss, 0)
			}
		})
	}
	{
		c, ids := newAPICM(1024)
		keys := make([]netsim.FlowKey, len(ids))
		for i, id := range ids {
			keys[i] = c.FlowInfo(id).Key
		}
		next := 0
		bodies["api.cm.charge_1k_flows"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				c.NotifyTransmit(keys[next%len(keys)], 1500)
				if next++; next%256 == 0 {
					c.Update(ids[0], 256*1500, 256*1500, cm.NoLoss, 0)
				}
			}
		})
	}
	{
		c, ids := newAPICM(1024)
		next := 0
		bodies["api.cm.round_robin_1k"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				c.Request(ids[next%len(ids)])
				if next++; next%1024 == 0 {
					c.Update(ids[0], 1024*1500, 1024*1500, cm.NoLoss, 0)
				}
			}
		})
	}
	{
		// One application behind libcm's control socket, draining grants by
		// hand: request, dispatch the send callback, notify, update.
		sched := simtime.NewScheduler()
		c := cm.New(sched, sched)
		lib := libcm.New(c, sched, libcm.ModeManual)
		f := lib.Open(netsim.ProtoUDP, netsim.Addr{Host: "client", Port: 1000}, netsim.Addr{Host: "server", Port: 80})
		lib.RegisterSend(f, func(f cm.FlowID) { lib.Notify(f, 1500) })
		lib.Update(f, 0, 1<<24, cm.NoLoss, time.Millisecond)
		bodies["api.libcm.request_dispatch"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				lib.Request(f)
				lib.Dispatch()
				lib.Update(f, 1500, 1500, cm.NoLoss, 0)
			}
		})
	}
	{
		// A k=4 fat-tree with the control plane live and no traffic: the
		// unit of work is a routing message sent.
		spec, err := scenario.FatTree(scenario.FatTreeParams{K: 4, Duration: 20 * time.Second})
		if err != nil {
			return nil, err
		}
		spec.RouteSync = scenario.RouteSyncProtocol
		spec.Workloads = nil
		res, err := scenario.Run(spec)
		if err != nil {
			return nil, err
		}
		if res.Routing == nil || res.Routing.MessagesSent == 0 {
			return nil, fmt.Errorf("routeproto loop sent no messages")
		}
		bodies["api.routeproto.msg"] = loopBody{perIter: float64(res.Routing.MessagesSent), fn: func(n int) {
			for i := 0; i < n; i++ {
				if _, err := scenario.Run(spec); err != nil {
					panic(err) // the same spec ran a moment ago
				}
			}
		}}
	}
	{
		r := probe.NewRecorder(256)
		ev := probe.Event{Kind: probe.EvDeliver, Size: 1500, Note: "link"}
		bodies["api.probe.recorder_append"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				ev.At = time.Duration(i)
				r.Append(ev)
			}
		})
	}
	{
		spec, err := scenario.FatTree(scenario.FatTreeParams{K: 16})
		if err != nil {
			return nil, err
		}
		bodies["api.scenario.build_fattree_k16"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				if _, err := scenario.Build(spec); err != nil {
					panic(err) // FatTree only returns specs that validate
				}
			}
		})
	}
	{
		res, err := scenario.Run(scenario.DumbbellGrid(scenario.GridParams{Duration: time.Second}))
		if err != nil {
			return nil, err
		}
		bodies["api.faults.check"] = unit(func(n int) {
			for i := 0; i < n; i++ {
				if v := faults.Check(res); len(v) != 0 {
					panic(fmt.Sprint("grid run violates invariants: ", v))
				}
			}
		})
	}
	return bodies, nil
}
