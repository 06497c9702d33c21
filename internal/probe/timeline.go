package probe

import (
	"encoding/json"
	"io"
	"time"
)

// Span is one wall-clock execution interval on a timeline lane: a shard's
// synchronization window or a coordinator barrier.
type Span struct {
	// Name labels the span ("window", "barrier").
	Name string
	// Lane is the worker the span belongs to (shard index; the coordinator
	// gets its own lane).
	Lane int
	// Start is the wall-clock offset from the timeline's epoch; Dur the
	// wall-clock length.
	Start, Dur time.Duration
	// VirtStart and VirtEnd are the virtual-time bounds the span covered.
	VirtStart, VirtEnd time.Duration
	// Count is span-specific: cross-shard deliveries injected at a barrier,
	// dynamics events fired, zero otherwise.
	Count int
	// Kinds, when profiling is armed, is the per-event-kind cost breakdown of
	// the work executed inside the span (a window's worth of scheduler
	// events), already ordered for emission by the producer.
	Kinds []KindCost
}

// KindCost is one event kind's contribution to a span: how many events of the
// kind fired inside it and their total wall-clock cost. The kind names come
// from simtime.Kind (probe stays independent of simtime, so they arrive as
// strings).
type KindCost struct {
	Kind  string
	Count uint64
	Ns    int64
}

// Timeline collects execution Spans per lane. Lanes are written
// independently: each shard worker appends only to its own lane and the
// coordinator to its own, and the run's start/stop barriers order those
// writes against Spans()/WriteJSON — no locking needed.
//
// A Timeline records wall-clock time; it is an execution artifact, never part
// of a Result, so enabling it cannot perturb simulation determinism.
type Timeline struct {
	epoch time.Time
	names []string
	lanes [][]Span
}

// NewTimeline returns a timeline with one lane per name, with the epoch (the
// zero point of every Span.Start) taken now.
func NewTimeline(laneNames ...string) *Timeline {
	return &Timeline{
		epoch: time.Now(),
		names: laneNames,
		lanes: make([][]Span, len(laneNames)),
	}
}

// Since returns the wall-clock offset of "now" from the timeline epoch;
// workers bracket their spans with it.
func (t *Timeline) Since() time.Duration { return time.Since(t.epoch) }

// Add appends a span to its lane. Only the lane's owning worker may call it.
func (t *Timeline) Add(lane int, s Span) {
	s.Lane = lane
	t.lanes[lane] = append(t.lanes[lane], s)
}

// SpanCount returns the total number of recorded spans.
func (t *Timeline) SpanCount() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l)
	}
	return n
}

// Spans returns every recorded span, lane by lane.
func (t *Timeline) Spans() []Span {
	out := make([]Span, 0, t.SpanCount())
	for _, l := range t.lanes {
		out = append(out, l...)
	}
	return out
}

// traceEvent is one entry of the Chrome trace_event JSON array
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// ph "X" is a complete (duration) event, ph "M" a metadata record naming a
// lane; ts and dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON exports the timeline in Chrome trace_event format, loadable in
// chrome://tracing or Perfetto. Each lane becomes a named thread; each span a
// duration event carrying its virtual-time window in args.
func (t *Timeline) WriteJSON(w io.Writer) error {
	events := make([]traceEvent, 0, t.SpanCount()+len(t.names))
	for lane, name := range t.names {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Tid: lane,
			Args: map[string]any{"name": name},
		})
	}
	for _, s := range t.Spans() {
		args := map[string]any{
			"virt_start_ms": float64(s.VirtStart) / float64(time.Millisecond),
			"virt_end_ms":   float64(s.VirtEnd) / float64(time.Millisecond),
		}
		if s.Count != 0 {
			args["count"] = s.Count
		}
		if len(s.Kinds) > 0 {
			// One {"count", "ms"} object per kind; encoding/json sorts the
			// map keys, so the output is deterministic for a fixed breakdown.
			kinds := make(map[string]any, len(s.Kinds))
			for _, kc := range s.Kinds {
				kinds[kc.Kind] = map[string]any{
					"count": kc.Count,
					"ms":    float64(kc.Ns) / float64(time.Millisecond),
				}
			}
			args["kinds"] = kinds
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X",
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
			Tid:  s.Lane,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}
