package netsim

import "fmt"

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
// records state occupancy, samples a drop in the current state and then the
// state transition. Called from Send for every offered packet while a model
// is installed.
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
	if transP > 0 && l.random().Float64() < transP {
		l.geBad = !l.geBad
		l.stats.GETransitions++
	}
	return drop
}
