// The barrier schedule: every piece of work the executor does between
// windows rather than inside one.
//
// Probes read state that may live on several shards (a link's transmit side
// and receive side, a sum over a fabric), the protocol convergence baseline
// sums every host's drop counters, dynamics events rewire links that several
// shards use, and a snapshot reads everything. Each needs an instant where no
// shard is mid-window, and a barrier of the executor (shard.go) is exactly
// that: every event strictly before the instant has executed and none at it
// has, and every clock reads the instant (a link counts a packet as sent by
// the clock, see netsim.Link.SentCounters). A serial run is one shard and
// pauses at the same barriers, so every shard count sees identical state and
// results remain byte-identical.
//
// All of this work is one list of barrier actions. An action holds the next
// instant it is due and, when it fires, computes the one after; an instant
// any action is due at is a barrier. Nothing lists an action's future
// instants up front, so a 1 ns probe over a 30 s run costs one entry.
//
// Observers (probes, the protocol baseline) are observation-only by contract:
// they must not mutate simulation state or consume randomness.
package scenario

import (
	"math"
	"slices"
	"time"
)

// barrierAction is one entry of the barrier schedule: fire runs at the
// barrier at instant at and returns the next instant the action is due, or
// never once it is done.
type barrierAction struct {
	at   time.Duration
	rank int
	fire func(at time.Duration) (next time.Duration)
}

// never is the due instant of an action that has finished.
const never = time.Duration(math.MaxInt64)

// Actions due at the same barrier fire in rank order: observers first, so
// they see the state before that instant's dynamics events, then the events
// (Sim.fireEvents), then the snapshot, which sees the events applied.
const (
	rankObserve = iota
	rankDynamics
	rankSnapshot
)

// schedule adds an action to the barrier schedule, behind every action of
// its rank or a lower one.
func (sr *shardRun) schedule(a barrierAction) {
	i := len(sr.actions)
	for i > 0 && sr.actions[i-1].rank > a.rank {
		i--
	}
	sr.actions = slices.Insert(sr.actions, i, a)
}

// repeat schedules fn at every multiple of period (positive) in (0, last].
func (sr *shardRun) repeat(rank int, period, last time.Duration, fn func(at time.Duration)) {
	if period > last {
		return
	}
	sr.schedule(barrierAction{at: period, rank: rank, fire: func(at time.Duration) time.Duration {
		fn(at)
		if at <= last-period {
			return at + period
		}
		return never
	}})
}
