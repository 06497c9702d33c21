package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/simtime"
)

// GilbertElliott configures the two-state bursty loss model of the same name:
// the link is in a Good or a Bad state, each packet arrival may flip the state,
// and each state has its own drop probability. Unlike the independent Bernoulli
// LossRate knob, losses cluster into bursts whose mean length is 1/PBadGood
// packets — the loss pattern of a fading wireless channel, which is what the
// paper's adaptation experiments assume the CM must survive.
//
// The model is driven by the link's private random source, so runs stay
// byte-identical whether scenarios execute serially or in parallel.
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of a Good->Bad transition.
	PGoodBad float64 `json:"p_good_bad"`
	// PBadGood is the per-packet probability of a Bad->Good transition; the
	// mean burst length is 1/PBadGood packets.
	PBadGood float64 `json:"p_bad_good"`
	// LossGood is the drop probability while in the Good state (usually 0).
	LossGood float64 `json:"loss_good,omitempty"`
	// LossBad is the drop probability while in the Bad state. Zero is
	// normalised to 1 when the model is installed: a declared Bad state that
	// never drops would make the model a no-op.
	LossBad float64 `json:"loss_bad,omitempty"`
	// Tick switches the model to time-driven operation: state transitions
	// are evaluated on a clock every Tick of virtual time (PGoodBad and
	// PBadGood become per-tick probabilities) instead of on each packet
	// arrival, so burst durations are set by the clock and decouple from the
	// offered load — a low-rate flow sees the same fade timing as a
	// saturating one. Zero keeps the per-arrival (packet-driven) model.
	Tick time.Duration `json:"tick,omitempty"`
}

// Validate checks that every probability is in [0, 1].
func (g *GilbertElliott) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p_good_bad", g.PGoodBad},
		{"p_bad_good", g.PBadGood},
		{"loss_good", g.LossGood},
		{"loss_bad", g.LossBad},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("gilbert-elliott: %s = %v out of [0,1]", p.name, p.v)
		}
	}
	if g.Tick < 0 {
		return fmt.Errorf("gilbert-elliott: tick = %v negative", g.Tick)
	}
	return nil
}

// withDefaults returns a copy with the zero LossBad normalised to 1.
func (g GilbertElliott) withDefaults() GilbertElliott {
	if g.LossBad == 0 {
		g.LossBad = 1
	}
	return g
}

// geStep advances the Gilbert-Elliott process by one packet arrival: it
// records state occupancy, samples a drop in the current state and — in the
// packet-driven mode — then samples the state transition (a time-driven model
// flips state on clock ticks instead; see armGETick). Called from Send for
// every offered packet while a model is installed.
func (l *Link) geStep() bool {
	g := l.gilbert
	var lossP, transP float64
	if l.geBad {
		l.stats.GEBadPackets++
		lossP, transP = g.LossBad, g.PBadGood
	} else {
		l.stats.GEGoodPackets++
		lossP, transP = g.LossGood, g.PGoodBad
	}
	drop := lossP > 0 && l.random().Float64() < lossP
	if g.Tick <= 0 && transP > 0 && l.random().Float64() < transP {
		l.geBad = !l.geBad
		l.stats.GETransitions++
	}
	return drop
}

// armGETick starts the transition clock of a time-driven model. Each
// installation gets its own generation; replacing or removing the model bumps
// the counter, so a stale tick chain fires once more, sees the mismatch and
// dies without touching the state or the RNG.
//
// Transition draws come from a private RNG (seeded from the link seed), not
// the link's packet RNG: per-packet draws must not shift the fade schedule,
// or the mode's one promise — burst timing independent of offered load —
// would silently erode. With the split, the same tick model produces the
// exact same state-flip times whatever traffic the link carries.
func (l *Link) armGETick() {
	if l.geTickRNG == nil {
		seed := l.cfg.Seed
		if seed == 0 {
			seed = 1
		}
		l.geTickRNG = rand.New(rand.NewSource(seed + geTickSeedOffset))
	}
	gen := l.geTickGen
	var fire func(any)
	fire = func(any) {
		g := l.gilbert
		if l.geTickGen != gen || g == nil || g.Tick <= 0 {
			return
		}
		transP := g.PGoodBad
		if l.geBad {
			transP = g.PBadGood
		}
		if transP > 0 && l.geTickRNG.Float64() < transP {
			l.geBad = !l.geBad
			l.stats.GETransitions++
		}
		l.sched.Schedule(l.sched.Now()+g.Tick, simtime.KindDynamics, fire, nil)
	}
	l.sched.Schedule(l.sched.Now()+l.gilbert.Tick, simtime.KindDynamics, fire, nil)
}

// geTickSeedOffset derives the tick RNG's seed from the link seed. The
// offset only has to differ from the offsets of the other per-link streams
// (the packet RNG uses the seed itself); the value is arbitrary but fixed.
const geTickSeedOffset = 0x6745_1302
