// Barrier observers: whole-simulation sampling instants.
//
// A per-host probe can sample on its owner's scheduler, but an observer that
// reads *across* the whole simulation — an aggregate probe summing links on
// different shards, the protocol convergence baseline summing every host's
// drop counters — needs an instant where no shard is mid-window. The
// observation schedule provides exactly that: each registered time t is a
// barrier of the executor (shard.go), where every event strictly before t
// has executed and none at t has; observers fire after the barrier's drain,
// before same-instant dynamics events. A serial run is one shard and pauses
// at the same barriers, so every shard count observes identical state with
// every clock reading t (a link counts a packet as sent by the clock, see
// netsim.Link.SentCounters), and results remain byte-identical.
//
// Observers are observation-only by contract: they must not mutate
// simulation state or consume randomness.
package scenario

import (
	"sort"
	"time"
)

// addObserver registers fire to run at each of the given instants (values
// outside (0, Duration] are ignored). Call before the run; Start finalises
// the schedule and hands it to the executor.
func (s *Sim) addObserver(times []time.Duration, fire func(at time.Duration)) {
	var mine []time.Duration
	for _, t := range times {
		if t > 0 && t <= s.Spec.Duration {
			mine = append(mine, t)
		}
	}
	if len(mine) == 0 {
		return
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })
	s.obsTimes = append(s.obsTimes, mine...)
	idx := 0
	s.obsFns = append(s.obsFns, func(at time.Duration) {
		for idx < len(mine) && mine[idx] < at {
			idx++
		}
		if idx < len(mine) && mine[idx] == at {
			fire(at)
			idx++
		}
	})
}

// finishObservers sorts and dedupes the merged schedule and hands it to the
// executor as barrier instants. Called once from Start after every
// registration.
func (s *Sim) finishObservers() {
	if len(s.obsTimes) == 0 {
		return
	}
	sort.Slice(s.obsTimes, func(i, j int) bool { return s.obsTimes[i] < s.obsTimes[j] })
	uniq := s.obsTimes[:1]
	for _, t := range s.obsTimes[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	s.obsTimes = uniq
	s.shard.obs, s.shard.obsFire = s.obsTimes, s.fireObservers
}

// fireObservers runs every registered observer for instant at; each observer
// ignores instants outside its own schedule.
func (s *Sim) fireObservers(at time.Duration) {
	for _, fn := range s.obsFns {
		fn(at)
	}
}
