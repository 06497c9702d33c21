// Adaptive vat example: the interactive-audio architecture of §3.6.
//
// A 64 kbps constant-bit-rate audio source streams over a path whose capacity
// drops below the audio rate halfway through the run. The policer (driven by
// CM rate callbacks) preemptively drops frames so that delay stays bounded
// instead of letting queues build up.
//
// Run with:  go run ./examples/vataudio
package main

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/cm"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/simtime"
)

func run(bandwidth netsim.Bandwidth, label string) {
	sched := simtime.NewScheduler()
	network := node.NewNetwork(sched)
	network.ConnectDuplex("caller", "callee", netsim.LinkConfig{
		Bandwidth:    bandwidth,
		Delay:        25 * time.Millisecond,
		QueuePackets: 30,
		Seed:         11,
	})
	manager := cm.New(sched, sched)
	network.Host("caller").SetTransmitNotifier(manager)

	callee, err := app.NewReceiver(network.Host("callee"), 5004, app.FeedbackPolicy{EveryPackets: 1})
	if err != nil {
		panic(err)
	}
	vat, err := app.NewVatSource(network.Host("caller"), manager, callee.Addr(), app.VatConfig{
		DropPolicy: netsim.DropHead,
	})
	if err != nil {
		panic(err)
	}

	vat.Start()
	sched.RunFor(60 * time.Second)
	vat.Stop()

	st := vat.Stats()
	fmt.Printf("%-22s generated=%5d sent=%5d policer-drops=%5d buffer-drops=%4d received=%5d rate-callbacks=%d\n",
		label, st.FramesGenerated, st.FramesSent, st.PolicerDrops, st.BufferDrops,
		callee.TotalPackets(), st.RateCallbacks)
}

func main() {
	fmt.Println("Adaptive vat (64 kbps audio, drop-from-head application buffer):")
	run(1*netsim.Mbps, "uncongested (1 Mbps)")
	run(48*netsim.Kbps, "congested (48 kbps)")
	run(24*netsim.Kbps, "severe (24 kbps)")
}
