package libcm

import (
	"math/rand"
	"time"
)

// InjectorStats counts notifications the fault injector interfered with.
type InjectorStats struct {
	DroppedSends   int64
	DelayedSends   int64
	DroppedUpdates int64
	DelayedUpdates int64
	// StaleUpdatesDropped counts delayed cmapp_update deliveries that libcm
	// discarded on arrival because a newer status had already been queued —
	// the reordering guard a real kernel/user boundary needs.
	StaleUpdatesDropped int64
}

// Injector is a seeded per-host fault source for the kernel→user notification
// path: each DeliverSend/DeliverUpdate crossing is independently dropped with
// probability DropRate or delayed by Delay with probability DelayRate. One
// injector is shared by every Lib on a host so the host's fault process is a
// single deterministic RNG stream; rates are adjusted mid-run by the
// set-notify-faults dynamics event.
type Injector struct {
	// rng is created by the first verdict that draws: a rand.Rand source is
	// ~5 KB and almost no host ever has faults enabled. The seed is fixed at
	// construction, so the stream is the same whenever it starts.
	rng       *rand.Rand
	seed      int64
	dropRate  float64
	delayRate float64
	delay     time.Duration
	stats     InjectorStats
}

// NewInjector creates an injector with its own seeded random stream. With
// both rates zero it passes every notification through (but still consumes no
// randomness, so enabling faults mid-run is deterministic).
func NewInjector(seed int64) *Injector {
	if seed == 0 {
		seed = 1
	}
	return &Injector{seed: seed}
}

// SetRates updates the drop/delay probabilities and the delay applied to
// delayed notifications. Rates are clamped to [0, 1].
func (in *Injector) SetRates(drop, delayRate float64, delay time.Duration) {
	in.dropRate = clamp01(drop)
	in.delayRate = clamp01(delayRate)
	if delay < 0 {
		delay = 0
	}
	in.delay = delay
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() InjectorStats { return in.stats }

type faultVerdict int

const (
	faultDeliver faultVerdict = iota
	faultDrop
	faultDelay
)

// verdict draws the fate of one notification. No randomness is consumed
// while the injector is fully disabled, so a host with no fault events
// behaves identically whether or not an injector is installed.
func (in *Injector) verdict() faultVerdict {
	if in.dropRate == 0 && in.delayRate == 0 {
		return faultDeliver
	}
	if in.rng == nil {
		in.rng = rand.New(rand.NewSource(in.seed))
	}
	r := in.rng.Float64()
	if r < in.dropRate {
		return faultDrop
	}
	if r < in.dropRate+in.delayRate {
		return faultDelay
	}
	return faultDeliver
}
