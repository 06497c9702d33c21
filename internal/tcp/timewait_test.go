package tcp

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/netsim"
	"repro/internal/race"
)

// closedPair runs a small transfer to a server that answers the client's FIN
// with its own and returns both endpoints, fully closed.
func closedPair(t *testing.T, e *env, clientCfg Config) (client, server *Endpoint) {
	t.Helper()
	// The listener outlives the connection and keeps this closure: accepted
	// is cleared below so the closure does not keep the endpoint.
	var accepted *Endpoint
	_, err := Listen(e.net.Host("server"), 80, Config{DelayedAck: true}, func(ep *Endpoint, _ any) {
		accepted = ep
		ep.OnClosed(func(ep *Endpoint, _ any) { ep.Close() })
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err = Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	client.OnEstablished(func(*Endpoint, any) {
		client.Send(20_000)
		client.Close()
	})
	e.sched.RunFor(time.Second)
	server, accepted = accepted, nil
	if client.State() != StateTimeWait || server.State() != StateTimeWait {
		t.Fatalf("client %v, server %v, want both in time-wait", client.State(), server.State())
	}
	return client, server
}

// wireAck is everything of an acknowledgement the peer or a link can observe.
type wireAck struct {
	seg      Segment
	src, dst netsim.Addr
	size     int
	control  bool
	charge   int
}

// Differential check of the time-wait record against the endpoint it
// replaced. Before this change a TIME_WAIT Endpoint stayed bound and handled
// a late segment with
//
//	e.stats.SegmentsRcvd++
//	if seg.Len > 0 || seg.FIN { e.sendAck() }
//
// (timeWaitEndpointHandle below, answering from the endpoint's own fields).
// The record now bound on the host answers from the state it froze at the
// hand-over; it must put the same ACK on the wire and move the same counters
// of Endpoint.Stats, for a late FIN, late data and a late pure ACK, on the
// side that closed first and on the side that closed second.
func TestTimeWaitRecordAnswersLikeTheEndpoint(t *testing.T) {
	timeWaitEndpointHandle := func(e *Endpoint, seg *Segment) {
		e.stats.SegmentsRcvd++
		if seg.Len > 0 || seg.FIN {
			e.sendAck()
		}
	}

	e := newEnv(t, lan(), true)
	client, server := closedPair(t, e, cmClientCfg(e))
	var wire []wireAck
	tap := func(pkt *netsim.Packet) {
		wire = append(wire, wireAck{
			seg: *pkt.Payload.(*Segment), src: pkt.Src, dst: pkt.Dst,
			size: pkt.Size, control: pkt.Control, charge: pkt.ChargeBytes,
		})
	}
	e.duplex.Forward.SetTap(tap)
	e.duplex.Reverse.SetTap(tap)

	for _, side := range []struct {
		name string
		ep   *Endpoint
	}{{"client", client}, {"server", server}} {
		ep := side.ep
		for _, late := range []struct {
			kind string
			seg  Segment
		}{
			{"FIN", Segment{Seq: ep.rcvNxt - 1, FIN: true, ACK: true, Ack: ep.sndNxt, TSVal: 5 * time.Millisecond}},
			{"data", Segment{Seq: ep.rcvNxt - 500, Len: 400, ACK: true, Ack: ep.sndNxt, TSVal: 7 * time.Millisecond}},
			{"ACK", Segment{Seq: ep.rcvNxt, ACK: true, Ack: ep.sndNxt, TSVal: 9 * time.Millisecond}},
		} {
			kind, seg := late.kind, late.seg
			// Through the host, as a late segment arrives: the record answers.
			before := ep.Stats()
			pkt := newPacket(ep.remote, ep.local, newSegment(seg), true)
			e.net.Host(ep.local.Host).Receive(pkt)
			viaRecord := ep.Stats()
			// At the same instant, what the endpoint would have done.
			timeWaitEndpointHandle(ep, &seg)
			viaEndpoint := ep.Stats()

			wire = wire[:0]
			e.sched.RunFor(10 * time.Millisecond)
			wantAcks := 2
			if kind == "ACK" {
				wantAcks = 0
			}
			if len(wire) != wantAcks {
				t.Fatalf("%s, late %s: %d ACKs on the wire, want %d", side.name, kind, len(wire), wantAcks)
			}
			if wantAcks == 2 && wire[0] != wire[1] {
				t.Errorf("%s, late %s: record sent %+v, endpoint sent %+v", side.name, kind, wire[0], wire[1])
			}
			dr := [2]int64{viaRecord.SegmentsRcvd - before.SegmentsRcvd, viaRecord.AcksSent - before.AcksSent}
			de := [2]int64{viaEndpoint.SegmentsRcvd - viaRecord.SegmentsRcvd, viaEndpoint.AcksSent - viaRecord.AcksSent}
			if dr != de || dr[0] != 1 || dr[1] != int64(wantAcks/2) {
				t.Errorf("%s, late %s: SegmentsRcvd/AcksSent moved by %v via the record, %v via the endpoint", side.name, kind, dr, de)
			}
			viaRecord.SegmentsRcvd, viaRecord.AcksSent = before.SegmentsRcvd, before.AcksSent
			if viaRecord != before {
				t.Errorf("%s, late %s: a late segment changed other counters: %+v -> %+v", side.name, kind, before, viaRecord)
			}
		}
	}
}

// Once both sides are in TIME_WAIT nothing in the simulator refers to either
// Endpoint: the host binds the record, the timers are stopped, the CM flow is
// closed and the listener keeps no connection table. A caller that drops its
// handle frees the endpoint, while a late segment is still answered.
func TestEndpointCollectableAfterTimeWait(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e := newEnv(t, lan(), useCM)
		var client, server weak.Pointer[Endpoint]
		var clientAddr netsim.Addr
		func() {
			cfg := nativeCfg()
			if useCM {
				cfg = cmClientCfg(e)
			}
			c, s := closedPair(t, e, cfg)
			client, server, clientAddr = weak.Make(c), weak.Make(s), c.Local()
		}()
		runtime.GC()
		runtime.GC()
		if client.Value() != nil || server.Value() != nil {
			t.Fatalf("cm=%v: still reachable after both reached time-wait: client %v, server %v",
				useCM, client.Value() != nil, server.Value() != nil)
		}
		if useCM && (e.cm.FlowCount() != 0 || e.cm.MacroflowCount() != 1) {
			t.Errorf("CM keeps %d flows and %d macroflows, want the macroflow alone", e.cm.FlowCount(), e.cm.MacroflowCount())
		}
		// The connection is still there for a late FIN.
		sent := e.net.Host("server").Stats().SentPackets
		fin := newPacket(clientAddr, netsim.Addr{Host: "server", Port: 80},
			newSegment(Segment{Seq: 20_001, FIN: true}), true)
		e.net.Host("server").Receive(fin)
		if got := e.net.Host("server").Stats().SentPackets - sent; got != 1 {
			t.Errorf("cm=%v: late FIN after the endpoints were collected drew %d ACKs, want 1", useCM, got)
		}
		runtime.KeepAlive(e)
	}
}

// With every packet duplicated in both directions the close still completes
// once: the copies of the closing segments find the time-wait records, which
// count them and re-acknowledge the FINs, and the CM flow is closed exactly
// once.
func TestFullCloseUnderTotalDuplication(t *testing.T) {
	e, _ := impairedEnv(t, 0, 0, 1, 43, true)
	client, server := closedPair(t, e, cmClientCfg(e))
	if client.tw.segmentsRcvd == 0 || client.tw.acksSent == 0 {
		t.Errorf("client record saw %d segments and sent %d ACKs, want the duplicate FIN re-acknowledged",
			client.tw.segmentsRcvd, client.tw.acksSent)
	}
	if server.tw.segmentsRcvd == 0 {
		t.Error("server record never saw the duplicate of the last ACK")
	}
	if a := e.cm.Accounting(); a.Opens != 1 || a.Closes != 1 || a.StaleFlowCalls != 0 || e.cm.FlowCount() != 0 {
		t.Errorf("CM accounting after the close: %d opens, %d closes, %d stale calls, %d flows left",
			a.Opens, a.Closes, a.StaleFlowCalls, e.cm.FlowCount())
	}
}

// oneShot is an application with one connection to serve: the owner word of
// its listener and of the connection it accepts.
type oneShot struct {
	lis      *Listener
	accepted *Endpoint
	got      int64
}

func oneShotAccept(ep *Endpoint, owner any) {
	o := owner.(*oneShot)
	o.lis.Close() // the one connection is here
	o.accepted = ep
	ep.SetOwner(o)
	ep.OnReceive(func(_ *Endpoint, owner any, n int) { owner.(*oneShot).got += int64(n) })
	ep.OnClosed(func(ep *Endpoint, _ any) { ep.Close() })
	ep.OnTimeWait(func(_ *Endpoint, owner any) { owner.(*oneShot).accepted = nil })
}

// A listener that closes itself from its accept callback still completes that
// connection, and is then garbage like the endpoints: the host binds only the
// two time-wait records, the endpoints' timers and congestion controllers are
// part of them, and the owner word points from the endpoint to the application,
// not back. All three are collected while the hosts, the CM and the application
// state (the "Sim") live on; a second SYN to the port finds no listener.
func TestOneShotListenerAndEndpointsCollectable(t *testing.T) {
	for _, useCM := range []bool{false, true} {
		e := newEnv(t, lan(), useCM)
		app := new(oneShot)
		var lis weak.Pointer[Listener]
		var client, server weak.Pointer[Endpoint]
		func() {
			l, err := Listen(e.net.Host("server"), 80, Config{DelayedAck: true}, oneShotAccept, app)
			if err != nil {
				t.Fatal(err)
			}
			app.lis = l
			cfg := nativeCfg()
			if useCM {
				cfg = cmClientCfg(e)
			}
			c, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.OnEstablished(func(c *Endpoint, _ any) {
				c.Send(20_000)
				c.Close()
			})
			e.sched.RunFor(5 * time.Millisecond)
			if app.accepted == nil {
				t.Fatal("no connection accepted")
			}
			lis, client, server = weak.Make(l), weak.Make(c), weak.Make(app.accepted)
			e.sched.RunFor(time.Second)
			if c.State() != StateTimeWait || app.accepted != nil || app.got != 20_000 {
				t.Fatalf("cm=%v: client %v, server in time-wait %v, %d bytes delivered", useCM, c.State(), app.accepted == nil, app.got)
			}
			app.lis = nil
		}()
		runtime.GC()
		runtime.GC()
		if lis.Value() != nil || client.Value() != nil || server.Value() != nil {
			t.Errorf("cm=%v: still reachable: listener %v, client %v, server %v",
				useCM, lis.Value() != nil, client.Value() != nil, server.Value() != nil)
		}
		drops := e.net.Host("server").Stats().NoListenerDrops
		if _, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, nativeCfg()); err != nil {
			t.Fatal(err)
		}
		e.sched.RunFor(5 * time.Millisecond)
		if got := e.net.Host("server").Stats().NoListenerDrops - drops; got != 1 {
			t.Errorf("cm=%v: a SYN after the one-shot listener closed met %d no-listener drops, want 1", useCM, got)
		}
		runtime.KeepAlive(e)
		runtime.KeepAlive(app)
	}
}

// What a connection allocates: an Endpoint at each end and, once closed, a
// time-wait record at each end, plus the CM's flow record. Timers, congestion
// controllers and callbacks are inside the Endpoint or shared functions. The
// host binding tables grow too, by fewer objects than they gain entries.
func TestConnectionIsOneObjectPerEndpoint(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates shadow state of its own")
	}
	for _, tc := range []struct {
		useCM bool
		want  float64
	}{{false, 4}, {true, 5}} {
		e := newEnv(t, lan(), tc.useCM)
		accept := func(ep *Endpoint, _ any) { ep.OnClosed(func(ep *Endpoint, _ any) { ep.Close() }) }
		if _, err := Listen(e.net.Host("server"), 80, Config{DelayedAck: true}, accept, nil); err != nil {
			t.Fatal(err)
		}
		cfg := nativeCfg()
		if tc.useCM {
			cfg = cmClientCfg(e)
		}
		established := func(c *Endpoint, _ any) {
			c.Send(3000)
			c.Close()
		}
		connect := func() {
			c, err := Dial(e.net.Host("client"), netsim.Addr{Host: "server", Port: 80}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.OnEstablished(established)
			e.sched.RunFor(50 * time.Millisecond)
			if c.State() != StateTimeWait {
				t.Fatalf("connection ended in %v", c.State())
			}
		}
		for i := 0; i < 100; i++ {
			connect() // pools, freelists and the first map growth steps
		}
		const n = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			connect()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / n
		t.Logf("cm=%v: %.2f objects per connection opened, used and closed", tc.useCM, per)
		if per < tc.want || per > tc.want+0.5 {
			t.Errorf("cm=%v: a connection allocated %.2f objects, want %.0f plus binding-table growth (< 0.5)", tc.useCM, per, tc.want)
		}
	}
}
