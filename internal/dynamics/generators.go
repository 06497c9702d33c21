package dynamics

import (
	"fmt"
	"math/rand"
	"time"
)

// Generator kinds.
const (
	// GenPoissonFlaps alternates a link between up and down with
	// exponentially distributed sojourn times (a Poisson flap process): the
	// link stays up for Exp(MeanUp), fails, stays down for Exp(MeanDown),
	// recovers, and so on until End.
	GenPoissonFlaps = "poisson-flaps"
	// GenCMRestarts is a Poisson process of CMRestart events on Host: the
	// Congestion Manager crashes and restarts with exponentially distributed
	// inter-failure times of mean Mean (a host-level churn source for the
	// fault-injection soak harness).
	GenCMRestarts = "cm-restarts"
)

// Generator is a seeded stochastic event source. It is declarative sugar over
// Events: Expand samples the whole process up front with a private seeded RNG
// and returns ordinary deterministic Events, so a long churn trace does not
// have to be declared event by event and every execution property of
// declared events — serial/parallel byte-identity, sharded barrier firing,
// per-event records — is inherited for free.
type Generator struct {
	// Kind is GenPoissonFlaps or GenCMRestarts.
	Kind string `json:"kind"`
	// Link indexes the scenario's Links slice (link generators only).
	Link int `json:"link"`
	// Direction is DirBoth (default), DirForward or DirReverse.
	Direction string `json:"direction,omitempty"`
	// Host names the target of a host-level generator (GenCMRestarts); Link
	// is ignored for these.
	Host string `json:"host,omitempty"`
	// Seed drives the generator's private RNG. Zero derives a deterministic
	// seed from the owning scenario's seed and the generator's position.
	Seed int64 `json:"seed,omitempty"`
	// Start and End bracket the generated process. End <= 0 means "the whole
	// run" (the owner substitutes the scenario duration before Expand).
	Start time.Duration `json:"start,omitempty"`
	End   time.Duration `json:"end,omitempty"`

	// MeanUp and MeanDown are the expected up/down sojourn times of
	// GenPoissonFlaps (defaults 10s and 1s).
	MeanUp   time.Duration `json:"mean_up,omitempty"`
	MeanDown time.Duration `json:"mean_down,omitempty"`

	// Mean is the expected inter-restart time of GenCMRestarts (default 10s).
	Mean time.Duration `json:"mean,omitempty"`
}

// HostGenerator reports whether the generator targets a host rather than a
// link.
func (g Generator) HostGenerator() bool { return g.Kind == GenCMRestarts }

// Validate checks the generator against a topology with nlinks links. Fields
// with defaults (seed, means, End) may be zero.
func (g Generator) Validate(nlinks int) error {
	if !g.HostGenerator() {
		if g.Link < 0 || g.Link >= nlinks {
			return fmt.Errorf("dynamics: generator link %d out of range [0,%d)", g.Link, nlinks)
		}
	}
	switch g.Direction {
	case "", DirBoth, DirForward, DirReverse:
	default:
		return fmt.Errorf("dynamics: generator direction %q unknown", g.Direction)
	}
	if g.Start < 0 {
		return fmt.Errorf("dynamics: generator start %v negative", g.Start)
	}
	if g.End != 0 && g.End <= g.Start {
		return fmt.Errorf("dynamics: generator end %v not after start %v", g.End, g.Start)
	}
	switch g.Kind {
	case GenPoissonFlaps:
		if g.MeanUp < 0 || g.MeanDown < 0 {
			return fmt.Errorf("dynamics: %s generator needs non-negative means", g.Kind)
		}
	case GenCMRestarts:
		if g.Host == "" {
			return fmt.Errorf("dynamics: %s generator needs a host", g.Kind)
		}
		if g.Mean < 0 {
			return fmt.Errorf("dynamics: %s generator mean %v negative", g.Kind, g.Mean)
		}
	default:
		return fmt.Errorf("dynamics: generator kind %q unknown", g.Kind)
	}
	return nil
}

// Expand samples the process and returns its events in time order. The caller
// is expected to have substituted owner-level defaults (Seed, End);
// Expand applies the remaining per-kind ones. Expansion is a pure function of
// the generator value: the same Generator always yields the same events.
func (g Generator) Expand() []Event {
	if g.Seed == 0 {
		g.Seed = 1
	}
	if g.End <= g.Start {
		return nil
	}
	rng := rand.New(rand.NewSource(g.Seed))
	switch g.Kind {
	case GenPoissonFlaps:
		return g.expandFlaps(rng)
	case GenCMRestarts:
		return g.expandRestarts(rng)
	}
	return nil
}

// expDuration samples Exp(mean), floored at 1ms so degenerate draws cannot
// produce zero-length sojourns (which would stack down/up pairs on one
// instant).
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

func (g Generator) expandFlaps(rng *rand.Rand) []Event {
	if g.MeanUp == 0 {
		g.MeanUp = 10 * time.Second
	}
	if g.MeanDown == 0 {
		g.MeanDown = time.Second
	}
	var evs []Event
	t := g.Start
	for {
		t += expDuration(rng, g.MeanUp)
		if t >= g.End {
			break
		}
		recover := t + expDuration(rng, g.MeanDown)
		if recover > g.End {
			recover = g.End
		}
		evs = append(evs,
			Event{At: t, Kind: LinkDown, Link: g.Link, Direction: g.Direction},
			Event{At: recover, Kind: LinkUp, Link: g.Link, Direction: g.Direction},
		)
		t = recover
	}
	return evs
}

func (g Generator) expandRestarts(rng *rand.Rand) []Event {
	if g.Mean == 0 {
		g.Mean = 10 * time.Second
	}
	var evs []Event
	t := g.Start
	for {
		t += expDuration(rng, g.Mean)
		if t >= g.End {
			break
		}
		evs = append(evs, Event{At: t, Kind: CMRestart, Host: g.Host})
	}
	return evs
}
