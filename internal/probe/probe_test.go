package probe

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseTarget(t *testing.T) {
	cases := []struct {
		in   string
		want Target
	}{
		{"link[0].queue_depth", Target{Kind: TargetLink, Index: 0, Field: "queue_depth"}},
		{"link[12].delivered_bytes", Target{Kind: TargetLink, Index: 12, Field: "delivered_bytes"}},
		{"host[s0].sent_bytes", Target{Kind: TargetHost, Host: "s0", Field: "sent_bytes"}},
		// Fat-tree style host names contain dots; the field is whatever
		// follows the bracket.
		{"host[h0.e1.p2].received_packets", Target{Kind: TargetHost, Host: "h0.e1.p2", Field: "received_packets"}},
		{"cm[s0].rate", Target{Kind: TargetCM, Host: "s0", Field: "rate"}},
		{"cm[s0].cwnd", Target{Kind: TargetCM, Host: "s0", Field: "cwnd"}},
		{"shard.lookahead", Target{Kind: TargetShard, Field: "lookahead"}},
		{"shard.count", Target{Kind: TargetShard, Field: "count"}},
	}
	for _, c := range cases {
		got, err := ParseTarget(c.in)
		if err != nil {
			t.Fatalf("ParseTarget(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseTarget(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseTargetErrors(t *testing.T) {
	bad := []string{
		"",
		"link[0]",              // missing field
		"link[x].queue_depth",  // non-numeric link index
		"link[-1].queue_depth", // negative link index
		"host[].sent_bytes",    // empty host
		"queue[0].depth",       // unknown kind
		"shard",                // no field
		"link]0[.queue_depth",  // unbalanced brackets
		"host[s0]sent_bytes",   // missing dot
		"cwnd",                 // bare word
	}
	for _, in := range bad {
		if _, err := ParseTarget(in); err == nil {
			t.Fatalf("ParseTarget(%q) should fail", in)
		}
	}
}

func TestSpecSeriesName(t *testing.T) {
	if got := (Spec{Target: "cm[s0].rate"}).SeriesName(); got != "cm[s0].rate" {
		t.Fatalf("default name = %q", got)
	}
	if got := (Spec{Target: "cm[s0].rate", Name: "rate"}).SeriesName(); got != "rate" {
		t.Fatalf("override name = %q", got)
	}
}

func TestRecorderRing(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Append(Event{At: time.Duration(i) * time.Second, Kind: EvEnqueue, Size: int64(i)})
	}
	if r.Len() != 3 || r.Total() != 3 {
		t.Fatalf("Len/Total = %d/%d", r.Len(), r.Total())
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Size != 0 || evs[2].Size != 2 {
		t.Fatalf("events = %+v", evs)
	}
	// Overflow: the ring keeps the newest 4.
	for i := 3; i < 10; i++ {
		r.Append(Event{At: time.Duration(i) * time.Second, Kind: EvDrop, Size: int64(i)})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("after overflow Len/Total = %d/%d", r.Len(), r.Total())
	}
	evs = r.Events()
	if len(evs) != 4 || evs[0].Size != 6 || evs[3].Size != 9 {
		t.Fatalf("after overflow events = %+v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
}

// The flight recorder must be free to leave attached to hot paths: appending
// must not allocate.
func TestRecorderAppendZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Append(Event{At: time.Second, Kind: EvGrant, Flow: 7, Size: 1448, Note: "queue"})
	})
	if allocs != 0 {
		t.Fatalf("Recorder.Append allocates %v per call, want 0", allocs)
	}
}

func TestRecorderDump(t *testing.T) {
	r := NewRecorder(8)
	r.Append(Event{At: 1500 * time.Millisecond, Kind: EvDrop, Size: 1448, Note: "queue"})
	r.Append(Event{At: 2 * time.Second, Kind: EvGrant, Flow: 3, Size: 512})
	var b bytes.Buffer
	r.Dump(&b, "s0")
	out := b.String()
	for _, want := range []string{"s0 t=1.500000s pkt-drop size=1448 note=queue", "cm-grant flow=3 size=512"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvEnqueue, EvDrop, EvDeliver, EvRequest, EvGrant, EvNotify, EvRoute, EvFault}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d stringifies to %q", k, s)
		}
		seen[s] = true
	}
}

func TestTimelineTraceEventJSON(t *testing.T) {
	tl := NewTimeline("shard 0", "shard 1", "coordinator")
	tl.Add(0, Span{Name: "window", Start: time.Millisecond, Dur: 2 * time.Millisecond,
		VirtStart: 0, VirtEnd: 20 * time.Millisecond})
	tl.Add(2, Span{Name: "barrier", Start: 3 * time.Millisecond, Dur: 100 * time.Microsecond,
		VirtStart: 20 * time.Millisecond, VirtEnd: 20 * time.Millisecond, Count: 5})
	if tl.SpanCount() != 2 {
		t.Fatalf("SpanCount = %d", tl.SpanCount())
	}
	var b bytes.Buffer
	if err := tl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	// 3 thread_name metadata records + 2 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents = %d, want 5", len(doc.TraceEvents))
	}
	var windows, metas int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			windows++
			if ev.Name == "window" && (ev.Ts != 1000 || ev.Dur != 2000 || ev.Tid != 0) {
				t.Fatalf("window span = %+v", ev)
			}
			if ev.Name == "barrier" && ev.Args["count"].(float64) != 5 {
				t.Fatalf("barrier span args = %+v", ev.Args)
			}
		}
	}
	if metas != 3 || windows != 2 {
		t.Fatalf("metas/windows = %d/%d", metas, windows)
	}
}
