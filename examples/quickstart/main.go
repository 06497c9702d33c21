// Quickstart: the smallest useful Congestion Manager program.
//
// It builds a two-host simulated network, installs a CM on the sender,
// transfers a file with TCP/CM (congestion control performed by the CM), and
// then sends a burst of datagrams over a congestion-controlled UDP socket
// that shares the same macroflow — showing the two flows learning from each
// other's congestion state.
//
// Run with:  go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
	"repro/internal/tcp"
	"repro/internal/udp"
)

func main() {
	// 1. A virtual clock and a two-host network: sender <-> receiver over a
	//    5 Mbps, 40 ms RTT bottleneck with a small router queue.
	sched := simtime.NewScheduler()
	network := node.NewNetwork(sched)
	network.ConnectDuplex("sender", "receiver", netsim.LinkConfig{
		Bandwidth:    5 * netsim.Mbps,
		Delay:        20 * time.Millisecond,
		QueuePackets: 60,
		Seed:         7,
	})

	// 2. The Congestion Manager lives on the sender; the IP output hook
	//    (cm_notify) is installed by SetTransmitNotifier.
	manager := cm.New(sched, sched)
	network.Host("sender").SetTransmitNotifier(manager)

	// 3. A TCP transfer whose congestion control is performed by the CM.
	const fileSize = 300 * 1024
	var delivered int
	_, err := tcp.Listen(network.Host("receiver"), 80, tcp.Config{DelayedAck: true}, func(ep *tcp.Endpoint, _ any) {
		ep.OnReceive(func(_ *tcp.Endpoint, _ any, n int) { delivered += n })
	}, nil)
	if err != nil {
		panic(err)
	}
	conn, err := tcp.Dial(network.Host("sender"), netsim.Addr{Host: "receiver", Port: 80}, tcp.Config{
		CongestionControl: tcp.CCCM,
		CM:                manager,
		DelayedAck:        true,
	})
	if err != nil {
		panic(err)
	}
	conn.OnEstablished(func(*tcp.Endpoint, any) {
		conn.Send(fileSize)
		conn.Close()
	})
	sched.RunFor(10 * time.Second)
	fmt.Printf("TCP/CM transfer: delivered %d of %d bytes, retransmissions=%d\n",
		delivered, fileSize, conn.Stats().Retransmissions)

	// 4. The macroflow to "receiver" now holds learned congestion state.
	probe := manager.Open(netsim.ProtoTCP, netsim.Addr{Host: "sender", Port: 1}, netsim.Addr{Host: "receiver", Port: 80})
	status, _ := manager.Query(probe)
	manager.Close(probe)
	fmt.Printf("macroflow state after the transfer: cwnd=%d bytes, srtt=%v, rate=%.0f KB/s\n",
		status.CWND, status.SRTT.Round(time.Millisecond), status.Rate/1024)

	// 5. A congestion-controlled UDP socket (the buffered send API) to the
	//    same receiver joins the same macroflow and is paced by the window the
	//    TCP transfer learned.
	sink, err := udp.NewSocket(network.Host("receiver"), 9000)
	if err != nil {
		panic(err)
	}
	var udpBytes int
	sink.OnReceive(func(_ netsim.Addr, d *udp.Datagram) { udpBytes += d.Size })

	sock, err := udp.NewCCSocket(network.Host("sender"), 0, netsim.Addr{Host: "receiver", Port: 9000}, manager, 128)
	if err != nil {
		panic(err)
	}
	// Queue a burst; the CM paces it out. The application remains responsible
	// for feedback, which in this quickstart we fake with perfect per-packet
	// acknowledgements after one RTT.
	const burst = 100
	for i := 0; i < burst; i++ {
		size := 1000
		sock.Send(&udp.Datagram{Seq: int64(i), Size: size})
	}
	// Perfect feedback loop: acknowledge everything the receiver has seen,
	// once per RTT.
	var acked int
	var ackLoop func()
	ackLoop = func() {
		newBytes := udpBytes - acked
		if newBytes > 0 {
			sock.Update(newBytes, newBytes, cm.NoLoss, 40*time.Millisecond)
			acked = udpBytes
		}
		if acked < burst*1000 {
			sched.After(40*time.Millisecond, ackLoop)
		}
	}
	sched.After(40*time.Millisecond, ackLoop)
	sched.RunFor(20 * time.Second)

	fmt.Printf("CM-UDP burst: delivered %d of %d bytes through the shared macroflow\n", udpBytes, burst*1000)
	fmt.Printf("CM accounting: %+v\n", manager.Accounting())
}
