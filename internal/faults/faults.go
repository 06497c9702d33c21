// Package faults is the host-level fault-injection harness: the invariant
// checker that validates scenario results after churn (CM restarts, dropped
// or delayed libcm notifications, host moves), and the canned churn-soak
// campaign that sweeps fault rates while checking every run.
//
// The injection machinery itself lives where the faults happen — dynamics
// (event kinds and the cm-restarts generator), cm (Restart, epochs, the
// end-of-run Audit), libcm (the notification Injector) and scenario (the
// host-event hook). This package is the judge: given a Result it decides
// whether the run's end state is consistent, and a soak run fails loudly
// instead of averaging a leak into a throughput number. See
// docs/ROBUSTNESS.md.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// Violation is one failed invariant in one run.
type Violation struct {
	// Scenario names the run (plus point/replicate position for campaigns).
	Scenario string `json:"scenario"`
	// Rule identifies the invariant (stable, machine-matchable).
	Rule string `json:"rule"`
	// Detail is the human-readable specifics.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Scenario, v.Rule, v.Detail)
}

// Invariant rule names.
const (
	// RuleNegativeCounter: a numeric result field is negative. Every counter
	// in the result is monotonic or a non-negative gauge; a negative value
	// means double-decrement somewhere (e.g. a grant reclaimed twice).
	RuleNegativeCounter = "negative-counter"
	// RuleGrantConservation: GrantsIssued != GrantsReclaimed + outstanding.
	// Every grant the CM issues must end the run either reclaimed (used,
	// declined, expired, or wiped by a restart) or still countably
	// outstanding; anything else is a leak.
	RuleGrantConservation = "grant-conservation"
	// RuleStrandedFlow: a flow ended the run with a pending request, a live
	// send callback and an open macroflow window — the CM should have
	// granted it, so a notification was lost and never re-requested.
	RuleStrandedFlow = "stranded-flow"
	// RuleNegativePending: a flow's pending-request count went negative
	// (more grants delivered than requests made).
	RuleNegativePending = "negative-pending"
	// RuleEpochMismatch: a CM's epoch disagrees with its restart counter.
	RuleEpochMismatch = "epoch-mismatch"
	// RuleUnfiredEvent: a dynamics event scheduled inside the run never
	// fired, or one flagged past-end fired anyway.
	RuleUnfiredEvent = "unfired-event"
	// RuleRouteLoop: the end-of-run forwarding audit of a protocol-mode run
	// found a host pair whose next-hop chain cycles — a forwarding loop that
	// outlived convergence.
	RuleRouteLoop = "route-loop"
	// RuleRouteQuiesce: an agent still held an unflushed triggered update at
	// the end of a run whose convergence deadline had passed.
	RuleRouteQuiesce = "route-quiesce"
	// RuleRouteBlackhole: routing-failure drops (no-route, route-miss,
	// forward-miss, TTL) occurred after the convergence deadline even though
	// the audit found every pair reachable — the blackhole window failed to
	// close. Only enforced when the audit ran and found no unreached pairs:
	// with a legitimately partitioned end state, post-deadline route misses
	// are correct behaviour, not a violation.
	RuleRouteBlackhole = "route-blackhole"
)

// Check validates one run's end state and returns every violated invariant
// (empty for a clean run).
func Check(res *scenario.Result) []Violation {
	c := checker{scenario: res.Scenario}
	c.standing(res, true)

	for i, ev := range res.Events {
		switch {
		case ev.PastEnd && ev.Fired:
			c.add(RuleUnfiredEvent, "event[%d] %s at %v flagged past-end but fired",
				i, ev.Kind, ev.At)
		case !ev.PastEnd && !ev.Fired && ev.At <= res.EndTime:
			c.add(RuleUnfiredEvent, "event[%d] %s scheduled at %v never fired (run ended %v)",
				i, ev.Kind, ev.At, res.EndTime)
		}
	}

	if rr := res.Routing; rr != nil {
		if rr.LoopPairs > 0 {
			c.add(RuleRouteLoop, "routing: %d of %d audited pairs cycle through the installed tables",
				rr.LoopPairs, rr.AuditedPairs)
		}
		if rr.Converged && rr.PendingAtEnd > 0 {
			c.add(RuleRouteQuiesce, "routing: %d agent(s) with pending triggered updates after the convergence deadline (%v)",
				rr.PendingAtEnd, rr.ConvergenceDeadline)
		}
		if rr.Converged && rr.AuditedPairs > 0 && rr.UnreachedPairs == 0 && rr.PostConvergenceRouteDrops > 0 {
			c.add(RuleRouteBlackhole, "routing: %d route-failure drop(s) after the convergence deadline (%v)",
				rr.PostConvergenceRouteDrops, rr.ConvergenceDeadline)
		}
	}
	return c.out
}

// CheckSnapshot validates a mid-run snapshot. It applies every invariant
// that must hold at all times — non-negative counters, grant conservation,
// negative-pending, epoch consistency — but skips the quiescence-dependent
// rules: a flow may legitimately hold a pending request mid-run (it is only
// stranded if the run *ends* that way), and events later than the snapshot
// have rightly not fired yet.
func CheckSnapshot(at *scenario.Snapshot) []Violation {
	res := at.Result
	c := checker{scenario: fmt.Sprintf("%s t=%v", res.Scenario, at.At)}
	c.standing(res, false)

	for i, ev := range res.Events {
		if !ev.PastEnd && !ev.Fired && ev.At <= at.At {
			c.add(RuleUnfiredEvent, "event[%d] %s scheduled at %v never fired (snapshot at %v)",
				i, ev.Kind, ev.At, at.At)
		}
	}
	return c.out
}

// checker collects the violations of one result under one scenario label.
type checker struct {
	scenario string
	out      []Violation
}

func (c *checker) add(rule, format string, args ...any) {
	c.out = append(c.out, Violation{
		Scenario: c.scenario,
		Rule:     rule,
		Detail:   fmt.Sprintf(format, args...),
	})
}

// standing applies the invariants that hold at every instant of a run, plus,
// for an end state (final), the stranded-flow rule, which only quiescence
// makes meaningful.
func (c *checker) standing(res *scenario.Result, final bool) {
	// Every numeric field in the whole result must be non-negative. The
	// flattened key space (see sweep.Flatten) covers flows, links, hosts and
	// CM accounting alike, so a new counter is guarded the day it is added.
	// Only the offenders — normally none — are materialised and sorted.
	negative := sweep.FlattenWhere(res, func(v float64) bool { return v < 0 })
	keys := make([]string, 0, len(negative))
	for k := range negative {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c.add(RuleNegativeCounter, "%s = %v", k, negative[k])
	}

	for _, cmr := range res.CMs {
		if got, want := cmr.GrantsIssued, cmr.GrantsReclaimed+int64(cmr.OutstandingGrants); got != want {
			c.add(RuleGrantConservation,
				"cm %s: GrantsIssued %d != GrantsReclaimed %d + outstanding %d",
				cmr.Host, got, cmr.GrantsReclaimed, cmr.OutstandingGrants)
		}
		if final && cmr.StrandedFlows > 0 {
			c.add(RuleStrandedFlow, "cm %s: %d flow(s) with a pending request, a send callback and an open window",
				cmr.Host, cmr.StrandedFlows)
		}
		if cmr.NegativePending > 0 {
			c.add(RuleNegativePending, "cm %s: %d flow(s) with negative pending requests",
				cmr.Host, cmr.NegativePending)
		}
		if cmr.Epoch != cmr.Restarts {
			c.add(RuleEpochMismatch, "cm %s: epoch %d != restarts %d",
				cmr.Host, cmr.Epoch, cmr.Restarts)
		}
	}
}

// CheckSnapshots validates a whole snapshot sequence plus the end state,
// returning every violation and the time of the first violating snapshot
// (-1 when only the end state, or nothing, is in violation). Closing the
// loop on mid-run invariant checking: a leak is reported where it first
// became visible, not thirty virtual seconds later.
func CheckSnapshots(snaps []scenario.Snapshot, end *scenario.Result) (all []Violation, firstAt int64) {
	firstAt = -1
	for i := range snaps {
		vs := CheckSnapshot(&snaps[i])
		if len(vs) > 0 && firstAt < 0 {
			firstAt = int64(snaps[i].At)
		}
		all = append(all, vs...)
	}
	if end != nil {
		all = append(all, Check(end)...)
	}
	return all, firstAt
}

// CheckCampaign runs Check over every raw replicate result of an executed
// campaign, labelling each violation with its point and replicate.
func CheckCampaign(cr *sweep.CampaignResult) []Violation {
	var out []Violation
	for _, pt := range cr.Points {
		for rep, res := range pt.Results {
			if res == nil {
				continue
			}
			for _, v := range Check(res) {
				v.Scenario = fmt.Sprintf("%s point=%d rep=%d seed=%d",
					v.Scenario, pt.Index, rep, seedAt(pt.Seeds, rep))
				out = append(out, v)
			}
		}
	}
	return out
}

func seedAt(seeds []int64, i int) int64 {
	if i < len(seeds) {
		return seeds[i]
	}
	return -1
}
