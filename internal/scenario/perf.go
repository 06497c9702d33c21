package scenario

import (
	"repro/internal/probe"
	"repro/internal/simtime"
)

// PerfKind is one event kind's aggregate in a Result's Perf block.
type PerfKind struct {
	Kind    string `json:"kind"`
	Count   uint64 `json:"count"`
	TotalNs int64  `json:"total_ns"`
	MaxNs   int64  `json:"max_ns"`
}

// Perf is the per-event-kind wall-clock cost attribution of a run, populated
// by Finish when EnableProfiling was called before the run (summed across
// shards for a sharded build). It reports where the run's real time went —
// execution telemetry, not simulation state: the simulated outcome is
// byte-identical with or without it (the byte-identity tests strip this block
// before comparing), and it is omitted from JSON when profiling is off.
type Perf struct {
	// Events is the number of profiled events; TotalNs their summed
	// wall-clock cost. Kinds lists the per-kind aggregates in simtime.Kind
	// order, zero-count kinds omitted.
	Events  uint64     `json:"events"`
	TotalNs int64      `json:"total_ns"`
	Kinds   []PerfKind `json:"kinds"`
}

// EnableProfiling arms the per-event-kind profiler on every shard's
// scheduler (the one of a serial build). Must be called after
// Build and before the run. Profiling observes event execution only — it
// never reads or writes simulation state, consumes no randomness and
// schedules nothing — so an armed run produces the identical Result (minus
// the Perf block itself).
func (s *Sim) EnableProfiling() {
	s.profiled = true
	for _, ss := range s.shard.states {
		ss.prof, ss.lastProf = ss.sched.EnableProfile(), new(simtime.ProfileSnapshot)
	}
}

// profileTotal sums the armed profilers across shards; zero if profiling
// was never enabled.
func (s *Sim) profileTotal() simtime.ProfileSnapshot {
	var total simtime.ProfileSnapshot
	for _, ss := range s.shard.states {
		if ss.prof != nil {
			total = total.Add(ss.prof.Snapshot())
		}
	}
	return total
}

// perfBlock assembles the Result.Perf block from the armed profilers, or nil
// when profiling is off.
func (s *Sim) perfBlock() *Perf {
	if !s.profiled {
		return nil
	}
	snap := s.profileTotal()
	p := &Perf{Events: snap.Events(), TotalNs: snap.TotalNs()}
	for k := simtime.Kind(0); k < simtime.NumKinds; k++ {
		if snap[k].Count == 0 {
			continue
		}
		p.Kinds = append(p.Kinds, PerfKind{
			Kind:    k.String(),
			Count:   snap[k].Count,
			TotalNs: snap[k].TotalNs,
			MaxNs:   snap[k].MaxNs,
		})
	}
	return p
}

// kindCosts converts a profiler snapshot (typically a window delta) into the
// timeline span breakdown, in simtime.Kind order with zero-count kinds
// omitted.
func kindCosts(snap simtime.ProfileSnapshot) []probe.KindCost {
	var out []probe.KindCost
	for k := simtime.Kind(0); k < simtime.NumKinds; k++ {
		if snap[k].Count == 0 {
			continue
		}
		out = append(out, probe.KindCost{Kind: k.String(), Count: snap[k].Count, Ns: snap[k].TotalNs})
	}
	return out
}
