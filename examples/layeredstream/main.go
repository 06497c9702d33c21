// Layered streaming example: the adaptive audio/video server of §3.4/§3.5.
//
// A layered media server streams to a client across a bottleneck while an
// on/off cross-traffic source periodically takes half the bandwidth away.
// The server is run twice — once with the ALF (request/callback) API and once
// with the rate-callback API — and the example prints how each one adapted.
//
// Run with:  go run ./examples/layeredstream
package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/cm"
	"repro/internal/libcm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

func run(mode app.LayeredMode) {
	sched := simtime.NewScheduler()
	network := node.NewNetwork(sched)
	network.ConnectDuplex("server", "client", netsim.LinkConfig{
		Bandwidth:    8 * netsim.Mbps,
		Delay:        25 * time.Millisecond,
		QueuePackets: 100,
		Seed:         3,
	})
	manager := cm.New(sched, sched)
	network.Host("server").SetTransmitNotifier(manager)
	lib := libcm.New(manager, sched, libcm.ModeAuto)

	// The client acknowledges every packet so the server's CM gets feedback.
	client, err := app.NewReceiver(network.Host("client"), 7000, app.FeedbackPolicy{EveryPackets: 1})
	if err != nil {
		panic(err)
	}
	layers := []float64{125_000, 250_000, 500_000, 1_000_000} // 1 - 8 Mbit/s
	server, err := app.NewLayeredServer(network.Host("server"), lib, client.Addr(), app.LayeredConfig{
		Mode:       mode,
		Layers:     layers,
		PacketSize: 1000,
	})
	if err != nil {
		panic(err)
	}

	// Competing traffic: 500 KB/s that switches on and off every 5 seconds.
	cross, err := app.NewOnOffSource(network.Host("server"), netsim.Addr{Host: "client", Port: 9990},
		500_000, 1000, 5*time.Second, 5*time.Second)
	if err != nil {
		panic(err)
	}

	server.Start()
	sched.After(5*time.Second, cross.Start)
	// A coarse adaptation trace: the layer being sent, sampled every 3 s.
	var trace []float64
	for t := 3 * time.Second; t <= 30*time.Second; t += 3 * time.Second {
		sched.RunUntil(t)
		trace = append(trace, layers[server.Layer()])
	}
	server.Stop()
	cross.Stop()

	stats := server.Stats()
	goodput := float64(client.TotalBytes()) / sched.Now().Seconds() / 1024
	fmt.Printf("%-14s packets=%6d layer-switches=%3d rate-callbacks=%4d grants=%6d goodput=%5.0f KB/s\n",
		mode, stats.PacketsSent, stats.LayerSwitches, stats.RateCallbacks, stats.GrantsReceived, goodput)

	fmt.Print("    layer trace (KB/s every 3s): ")
	for _, rate := range trace {
		fmt.Printf("%5.0f ", rate/1024)
	}
	fmt.Println()
}

func main() {
	fmt.Println("Layered streaming under varying cross traffic (8 Mbps bottleneck):")
	run(app.ModeALF)
	run(app.ModeRateCallback)
}
