package cm

import (
	"math/rand"
	"slices"
	"testing"
)

// refRoundRobin is the rotation written as a naive slice scan: from the
// cursor, walk the flows in join order to the first with a pending request.
// A flow the cursor reaches gains its weight in credit; it is granted while
// its credit is at least 1, and the cursor moves on when the credit drops
// below 1 or the flow runs out of requests, which also forfeits its credit
// (deficit round robin, Shreedhar & Varghese). With every weight 1 it is the
// plain grant-and-advance scan. It is the fairness oracle: the eligible-only
// ring is an index, not a policy change, so grant order over any workload
// must match this scan exactly.
type refRoundRobin struct {
	flows  []*flowState
	cursor int
	credit map[*flowState]float64
}

func (r *refRoundRobin) Add(f *flowState) {
	r.flows = append(r.flows, f)
	if len(r.flows) == 1 {
		r.cursor = 0
	}
}

func (r *refRoundRobin) Remove(f *flowState) {
	for i, fl := range r.flows {
		if fl == f {
			r.flows = append(r.flows[:i], r.flows[i+1:]...)
			delete(r.credit, f)
			if i < r.cursor {
				r.cursor--
			}
			if len(r.flows) > 0 {
				r.cursor %= len(r.flows)
			} else {
				r.cursor = 0
			}
			return
		}
	}
}

// Next returns the flow to grant without taking its request; the caller
// takes it.
func (r *refRoundRobin) Next() *flowState {
	if !slices.ContainsFunc(r.flows, func(f *flowState) bool { return f.pendingRequests > 0 }) {
		return nil
	}
	if r.credit == nil {
		r.credit = map[*flowState]float64{}
	}
	for ; ; r.cursor = (r.cursor + 1) % len(r.flows) {
		f := r.flows[r.cursor]
		if f.pendingRequests == 0 {
			continue
		}
		if r.credit[f] < 1 {
			r.credit[f] += f.weight
		}
		if r.credit[f] < 1 {
			continue
		}
		r.credit[f]--
		if r.credit[f] < 1 || f.pendingRequests == 1 {
			r.cursor = (r.cursor + 1) % len(r.flows)
			if f.pendingRequests == 1 {
				delete(r.credit, f)
			}
		}
		return f
	}
}

// TestEligibleListGrantOrderMatchesScan drives the intrusive eligible-only
// rotation and the reference scan through a long randomized mixed workload —
// flows joining and leaving, weights changing, requests arriving in bursts,
// grants draining — and requires the two grant sequences to be identical at every step. This
// is the fairness revalidation that allowed replacing the O(all flows) Next
// scan with the O(1) eligible-ring cursor.
func TestEligibleListGrantOrderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	real := &roundRobin{}
	ref := &refRoundRobin{}

	var flows []*flowState
	weights := []float64{0.5, 1, 2, 3}
	nextID := FlowID(1)
	addFlow := func(pending int) {
		f := &flowState{id: nextID, pendingRequests: pending, weight: 1}
		nextID++
		flows = append(flows, f)
		real.add(f)
		ref.Add(f)
	}
	removeFlow := func(i int) {
		f := flows[i]
		flows = append(flows[:i], flows[i+1:]...)
		real.remove(f)
		ref.Remove(f)
	}
	request := func(f *flowState) {
		f.pendingRequests++
		if f.pendingRequests == 1 {
			real.markEligible(f)
		}
	}
	grant := func() {
		want := ref.Next()
		got := real.next()
		if got != want {
			gid, wid := FlowID(-1), FlowID(-1)
			if got != nil {
				gid = got.id
			}
			if want != nil {
				wid = want.id
			}
			t.Fatalf("grant order diverged: eligible-list granted flow %d, scan granted flow %d", gid, wid)
		}
	}

	for i := 0; i < 8; i++ {
		addFlow(rng.Intn(3))
	}
	for op := 0; op < 50_000; op++ {
		switch r := rng.Intn(100); {
		case r < 8 && len(flows) < 300:
			// Join mid-rotation, sometimes already backlogged (Add must seed
			// the eligible ring like the old pending>0 registration did).
			addFlow(rng.Intn(2) * (1 + rng.Intn(3)))
		case r < 14 && len(flows) > 1:
			removeFlow(rng.Intn(len(flows)))
		case r < 18 && len(flows) > 0:
			// Weights other than 1 make the rotation grant a flow several
			// times per arrival (2, 3) or only every other arrival (0.5).
			real.setWeight(flows[rng.Intn(len(flows))], weights[rng.Intn(len(weights))])
		case r < 55 && len(flows) > 0:
			// Request bursts concentrate on a few flows: the sparse-eligibility
			// shape the eligible list exists for.
			f := flows[rng.Intn(len(flows))]
			for n := 1 + rng.Intn(4); n > 0; n-- {
				request(f)
			}
		default:
			grant()
		}
	}
	// Drain everything so the tail of the rotation is compared too.
	for i := 0; i < 10_000; i++ {
		grant()
	}
	// Some flows may still hold requests if the drain loop did not grant
	// them all; the eligible ring and weightSum must agree with the ground
	// truth either way.
	n, sum := 0, 0.0
	for _, f := range flows {
		if f.pendingRequests > 0 {
			n++
		}
		sum += f.weight
	}
	if got := eligibleCount(real); got != n {
		t.Fatalf("eligible count %d, ground truth %d", got, n)
	}
	if real.weightSum != sum {
		t.Fatalf("weightSum %v, ground truth %v", real.weightSum, sum)
	}
}
