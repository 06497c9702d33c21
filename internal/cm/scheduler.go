package cm

import "slices"

// roundRobin is a macroflow's flow scheduler: the paper's unweighted
// round-robin ("a standard unweighted round-robin scheduler"), with flow
// weights as one rule of the rotation. It only decides *which* flow receives
// the next grant; whether a grant can be issued at all is the congestion
// controller's decision.
//
// flows is the rotation's ring. Each flow's schedPos is its join position, so
// flows, kept in join order, is sorted by it, and a flow's successor is the
// next flow in flows, the last wrapping to the first. The flows with pending
// requests also sit on an intrusive eligible-only ring (eligNext/eligPrev),
// sorted by schedPos. The rotation points at the first flow in flows whose
// position is at least cursorPos, and eligCursor is the eligible flow closest
// to it in circular order, so next is O(1): it grants eligCursor and moves
// along the eligible ring. The scan cost sits in markEligible (a sorted
// insert, O(eligible flows)), which in the workload that motivated it (a
// handful of eligible flows in a huge rotation) is O(1) in practice.
//
// Weights: the flow at the cursor gains its weight in credit when the
// rotation arrives at it, is granted while its credit is at least 1, and the
// rotation moves on when the credit drops below 1 or the flow runs out of
// requests, which forfeits its credit (deficit round robin, Shreedhar and
// Varghese, SIGCOMM 1995). With every weight 1 a flow is granted once per
// arrival: the plain grant-and-advance rotation.
type roundRobin struct {
	// flows are the macroflow's flows in the order they joined (Open order,
	// unless SplitFlow or MergeFlows moved one here later).
	flows []*flowState

	eligHead   *flowState // eligible ring anchor: smallest schedPos; nil when none
	eligCursor *flowState // next grant: eligible flow closest to cursorPos
	cursorPos  uint64     // position the rotation points at
	nextPos    uint64     // join-position generator
	weightSum  float64    // sum of the flows' weights
}

// circRank orders join positions circularly starting at start: start itself
// first, larger positions ascending, then wrapped-around smaller positions
// ascending. Positions are a uint64 counter, so the high bit is never set and
// can mark the wrapped range.
func circRank(start, pos uint64) uint64 {
	switch {
	case pos == start:
		return 0
	case pos > start:
		return pos - start
	default:
		return 1<<63 + pos
	}
}

// add appends f to the rotation.
func (r *roundRobin) add(f *flowState) {
	f.schedPos = r.nextPos
	r.nextPos++
	if len(r.flows) == 0 {
		// An empty rotation points at its first flow.
		r.cursorPos = f.schedPos
	}
	r.flows = append(r.flows, f)
	r.weightSum += f.weight
	if f.pendingRequests > 0 {
		r.markEligible(f)
	}
}

// remove takes f out of the rotation; a flow not in it is ignored.
func (r *roundRobin) remove(f *flowState) {
	i := slices.Index(r.flows, f)
	if i < 0 {
		return
	}
	// The rotation points at f when cursorPos lies between its predecessor's
	// position and its own. Removing f then leaves it at f's successor, which
	// for any flow but the last is the next flow at or after cursorPos
	// anyway; the last wraps to the first. Flows that join later must queue
	// behind the first flow, as they would behind any other.
	if last := len(r.flows) - 1; i == last && i > 0 && r.cursorPos > r.flows[i-1].schedPos {
		r.cursorPos = r.flows[0].schedPos
	}
	r.unlinkEligible(f)
	r.weightSum -= f.weight
	// Delete in place and clear the vacated last element, which would
	// otherwise keep the departed flow reachable (see removeGrant).
	r.flows = slices.Delete(r.flows, i, i+1)
}

// setWeight changes f's weight, keeping weightSum.
func (r *roundRobin) setWeight(f *flowState, w float64) {
	r.weightSum += w - f.weight
	f.weight = w
}

// successor returns the position the rotation points at once it moves past
// f: the one just after f's, which the next flow in flows holds or, if flows
// left in between, follows; past the last flow, the first flow's.
func (r *roundRobin) successor(f *flowState) uint64 {
	if f == r.flows[len(r.flows)-1] {
		return r.flows[0].schedPos
	}
	return f.schedPos + 1
}

// markEligible links f, which has just gained its first pending request, into
// the eligible ring at its sorted position and repoints the cursor if f is
// now the closest eligible flow to it.
func (r *roundRobin) markEligible(f *flowState) {
	if f.eligNext != nil {
		return // already eligible
	}
	if r.eligHead == nil {
		f.eligNext, f.eligPrev = f, f
		r.eligHead = f
		r.eligCursor = f
		return
	}
	// Walk to the first flow with a larger position and insert before it;
	// past the tail, insert before the head (largest position wraps there).
	at := r.eligHead
	for at.schedPos < f.schedPos {
		at = at.eligNext
		if at == r.eligHead {
			break
		}
	}
	prev := at.eligPrev
	prev.eligNext = f
	f.eligPrev = prev
	f.eligNext = at
	at.eligPrev = f
	if f.schedPos < r.eligHead.schedPos {
		r.eligHead = f
	}
	if circRank(r.cursorPos, f.schedPos) < circRank(r.cursorPos, r.eligCursor.schedPos) {
		r.eligCursor = f
	}
}

// unlinkEligible removes f from the eligible ring if it is on it; its credit
// goes with it.
func (r *roundRobin) unlinkEligible(f *flowState) {
	if f.eligNext == nil {
		return
	}
	f.credit = 0
	if f.eligNext == f {
		r.eligHead, r.eligCursor = nil, nil
	} else {
		if r.eligCursor == f {
			r.eligCursor = f.eligNext
		}
		if r.eligHead == f {
			r.eligHead = f.eligNext
		}
		f.eligPrev.eligNext = f.eligNext
		f.eligNext.eligPrev = f.eligPrev
	}
	f.eligNext, f.eligPrev = nil, nil
}

// next returns the flow to grant and takes one of its pending requests, or
// returns nil if no flow has one.
func (r *roundRobin) next() *flowState {
	for {
		f := r.eligCursor
		if f == nil {
			return nil
		}
		if f.credit < 1 {
			f.credit += f.weight // the rotation arrives at f
		}
		granted := f.credit >= 1
		if granted {
			f.credit--
			f.pendingRequests--
		}
		if f.credit >= 1 && f.pendingRequests > 0 {
			// f keeps the rotation for another grant.
			r.cursorPos = f.schedPos
		} else {
			// The rotation moves to f's successor (which may be
			// ineligible); the next eligible flow in that order is f's
			// eligible-ring successor, and f itself wraps to the end of the
			// lap.
			r.cursorPos = r.successor(f)
			r.eligCursor = f.eligNext
			if f.pendingRequests == 0 {
				r.unlinkEligible(f)
			}
		}
		if granted {
			return f
		}
	}
}
