package cm

// Scheduler apportions a macroflow's transmission opportunities among its
// constituent flows. The paper's implementation uses an unweighted
// round-robin scheduler; a weighted variant is provided as the extension the
// paper anticipates ("a standard unweighted round-robin scheduler...
// currently").
//
// A scheduler only decides *which* flow receives the next grant; whether a
// grant can be issued at all is the congestion controller's decision.
type Scheduler interface {
	// Name identifies the policy.
	Name() string
	// Add registers a flow with the scheduler.
	Add(f *flowState)
	// Remove deregisters a flow.
	Remove(f *flowState)
	// MarkEligible tells the scheduler that f transitioned from zero to a
	// nonzero number of pending requests. The CM core calls it on every such
	// transition so schedulers can maintain an eligible-flow count instead of
	// rescanning all flows.
	MarkEligible(f *flowState)
	// MarkIneligible is the reverse transition (pending requests hit zero).
	MarkIneligible(f *flowState)
	// Next returns the next flow that has at least one pending request, or
	// nil if no flow is eligible. Successive calls rotate fairly among
	// eligible flows.
	Next() *flowState
	// Weight returns the scheduling weight of a flow (used to apportion the
	// advertised per-flow rate in Status). Unweighted schedulers return 1.
	Weight(f *flowState) float64
	// TotalWeight returns the sum of weights of all registered flows (at
	// least 1 to avoid division by zero).
	TotalWeight() float64
}

// roundRobinScheduler grants eligible flows in strict rotation.
//
// All registered flows sit on an intrusive circular doubly-linked list (the
// schedNext / schedPrev fields of flowState) in insertion order, and the
// flows with pending requests additionally sit on an *eligible-only* ring
// (eligNext / eligPrev), kept sorted by each flow's immutable insertion
// position (schedPos). The rotation cursor is the numeric position the next
// scan starts from, so Next is O(1) unconditionally: it returns the eligible
// flow closest to the cursor in circular insertion order — exactly the flow
// the previous implementation's scan over *all* flows would have found — and
// advances along the eligible ring. The scan cost moved to MarkEligible
// (a sorted insert, O(eligible flows)), which in the workload that motivated
// the change (a handful of eligible flows in a huge rotation) is O(1) in
// practice.
type roundRobinScheduler struct {
	head  *flowState // insertion-order anchor; nil when empty
	count int

	eligHead   *flowState // eligible ring anchor: smallest schedPos; nil when none
	eligCursor *flowState // next grant: eligible flow closest to cursorPos
	cursorPos  uint64     // position of the full-ring flow the rotation points at
	nextPos    uint64     // insertion-position generator
	eligible   int        // eligible-ring length (invariant checks, tests)
}

// NewRoundRobinScheduler returns the paper's default unweighted round-robin
// scheduler.
func NewRoundRobinScheduler() Scheduler { return &roundRobinScheduler{} }

func (s *roundRobinScheduler) Name() string { return "round-robin" }

// circRank orders insertion positions circularly starting at start: start
// itself first, larger positions ascending, then wrapped-around smaller
// positions ascending. Positions are a uint64 counter, so the high bit is
// never set and can mark the wrapped range.
//
// The cursor semantics replicate the previous identity-pointer cursor
// exactly: cursorPos is always the position of the flow the old code's
// cursor *pointed at* (captured eagerly as granted.schedNext at grant time,
// or the removed flow's successor), never "just past the grantee". The
// distinction matters when the tail flow is granted: the old cursor wrapped
// to the head immediately, so flows appended later join the *end* of the
// current lap — a position-only cursor would have put them first.
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

func (s *roundRobinScheduler) Add(f *flowState) {
	f.schedPos = s.nextPos
	s.nextPos++
	if s.head == nil {
		f.schedNext, f.schedPrev = f, f
		s.head = f
		// An empty rotation's cursor parks at the first flow: the first
		// grant goes to the first-added flow.
		s.cursorPos = f.schedPos
	} else {
		// Insert at the tail (just before head), matching slice append order.
		tail := s.head.schedPrev
		tail.schedNext = f
		f.schedPrev = tail
		f.schedNext = s.head
		s.head.schedPrev = f
	}
	s.count++
	if f.pendingRequests > 0 {
		s.insertEligible(f)
	}
}

func (s *roundRobinScheduler) Remove(f *flowState) {
	if f.schedNext == nil {
		return // not registered
	}
	// The old identity cursor moved to f's successor when f was removed from
	// under it; re-anchor the positional cursor the same way.
	if s.cursorPos == f.schedPos && s.count > 1 {
		s.cursorPos = f.schedNext.schedPos
	}
	s.unlinkEligible(f)
	s.count--
	if s.count == 0 {
		s.head = nil
	} else {
		if s.head == f {
			s.head = f.schedNext
		}
		f.schedPrev.schedNext = f.schedNext
		f.schedNext.schedPrev = f.schedPrev
	}
	f.schedNext, f.schedPrev = nil, nil
}

// insertEligible links f into the eligible ring at its sorted position and
// repoints the cursor if f is now the closest eligible flow to it.
func (s *roundRobinScheduler) insertEligible(f *flowState) {
	if f.eligNext != nil {
		return // already eligible
	}
	s.eligible++
	if s.eligHead == nil {
		f.eligNext, f.eligPrev = f, f
		s.eligHead = f
		s.eligCursor = f
		return
	}
	// Walk to the first flow with a larger position and insert before it;
	// past the tail, insert before the head (largest position wraps there).
	at := s.eligHead
	for at.schedPos < f.schedPos {
		at = at.eligNext
		if at == s.eligHead {
			break
		}
	}
	prev := at.eligPrev
	prev.eligNext = f
	f.eligPrev = prev
	f.eligNext = at
	at.eligPrev = f
	if f.schedPos < s.eligHead.schedPos {
		s.eligHead = f
	}
	if circRank(s.cursorPos, f.schedPos) < circRank(s.cursorPos, s.eligCursor.schedPos) {
		s.eligCursor = f
	}
}

// unlinkEligible removes f from the eligible ring if it is on it.
func (s *roundRobinScheduler) unlinkEligible(f *flowState) {
	if f.eligNext == nil {
		return
	}
	s.eligible--
	if f.eligNext == f {
		s.eligHead, s.eligCursor = nil, nil
	} else {
		if s.eligCursor == f {
			s.eligCursor = f.eligNext
		}
		if s.eligHead == f {
			s.eligHead = f.eligNext
		}
		f.eligPrev.eligNext = f.eligNext
		f.eligNext.eligPrev = f.eligPrev
	}
	f.eligNext, f.eligPrev = nil, nil
}

func (s *roundRobinScheduler) MarkEligible(f *flowState)   { s.insertEligible(f) }
func (s *roundRobinScheduler) MarkIneligible(f *flowState) { s.unlinkEligible(f) }

func (s *roundRobinScheduler) Next() *flowState {
	f := s.eligCursor
	if f == nil {
		return nil
	}
	// The cursor parks at the grantee's full-ring successor (which may be
	// ineligible), exactly like the old cursor = granted.schedNext. The next
	// eligible flow in that order is the grantee's eligible-ring successor:
	// no eligible flow sits between them by construction, and the grantee
	// itself wraps to the end of the lap.
	s.cursorPos = f.schedNext.schedPos
	s.eligCursor = f.eligNext
	return f
}

func (s *roundRobinScheduler) Weight(f *flowState) float64 { return 1 }

func (s *roundRobinScheduler) TotalWeight() float64 {
	if s.count == 0 {
		return 1
	}
	return float64(s.count)
}

// weightedRoundRobinScheduler grants flows in proportion to their weights
// using a smooth deficit-style rotation. Flows carry a weight (default 1)
// set via CM.SetWeight; per-flow credit lives on the flowState itself so the
// scheduler does no map work on the grant path.
type weightedRoundRobinScheduler struct {
	flows []*flowState
}

// NewWeightedRoundRobinScheduler returns a weighted round-robin scheduler.
func NewWeightedRoundRobinScheduler() Scheduler {
	return &weightedRoundRobinScheduler{}
}

func (s *weightedRoundRobinScheduler) Name() string { return "weighted-round-robin" }

func (s *weightedRoundRobinScheduler) Add(f *flowState) {
	s.flows = append(s.flows, f)
	f.wrrCredit = 0
}

func (s *weightedRoundRobinScheduler) Remove(f *flowState) {
	// Order-preserving removal keeps the credit-tie scan order (and therefore
	// grant sequences) identical to the original slice implementation.
	for i, fl := range s.flows {
		if fl == f {
			s.flows = append(s.flows[:i], s.flows[i+1:]...)
			return
		}
	}
}

// The weighted scheduler scans all flows on every Next call anyway, so the
// eligibility transitions carry no extra state.
func (s *weightedRoundRobinScheduler) MarkEligible(f *flowState)   {}
func (s *weightedRoundRobinScheduler) MarkIneligible(f *flowState) {}

// Next picks the eligible flow with the highest accumulated credit, then
// charges it one unit. Credits accrue proportionally to weight every call, so
// over time grants are distributed in weight proportion among flows that stay
// eligible.
func (s *weightedRoundRobinScheduler) Next() *flowState {
	var best *flowState
	anyEligible := false
	for _, f := range s.flows {
		if f.pendingRequests <= 0 {
			continue
		}
		anyEligible = true
		f.wrrCredit += f.weight
		if best == nil || f.wrrCredit > best.wrrCredit {
			best = f
		}
	}
	if !anyEligible {
		return nil
	}
	best.wrrCredit -= s.totalEligibleWeight()
	return best
}

func (s *weightedRoundRobinScheduler) totalEligibleWeight() float64 {
	var t float64
	for _, f := range s.flows {
		if f.pendingRequests > 0 {
			t += f.weight
		}
	}
	if t <= 0 {
		return 1
	}
	return t
}

func (s *weightedRoundRobinScheduler) Weight(f *flowState) float64 {
	if f.weight <= 0 {
		return 1
	}
	return f.weight
}

func (s *weightedRoundRobinScheduler) TotalWeight() float64 {
	var t float64
	for _, f := range s.flows {
		t += s.Weight(f)
	}
	if t <= 0 {
		return 1
	}
	return t
}

var (
	_ Scheduler = (*roundRobinScheduler)(nil)
	_ Scheduler = (*weightedRoundRobinScheduler)(nil)
)
