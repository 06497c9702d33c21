package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/probe"
	"repro/internal/scenario"
)

// referenceFlatten is the flattener as first written: recursive, building a
// prefix string per struct field and per slice element, filling one map. It
// is slow on large results and obviously right, and stays here as the oracle
// the key-buffer walk in flatten.go is compared against.
func referenceFlatten(res *scenario.Result) map[string]float64 {
	out := make(map[string]float64)
	referenceFlattenValue(reflect.ValueOf(res).Elem(), "", out)
	for i := range res.Series {
		s := &res.Series[i]
		prefix := "probe." + s.Name
		var total, lo, hi, last float64
		for j, p := range s.Points {
			total += p.V
			if j == 0 || p.V < lo {
				lo = p.V
			}
			if j == 0 || p.V > hi {
				hi = p.V
			}
			last = p.V
		}
		if n := len(s.Points); n > 0 {
			total /= float64(n)
		}
		out[prefix+".mean"] = total
		out[prefix+".min"] = lo
		out[prefix+".max"] = hi
		out[prefix+".last"] = last
		out[prefix+".samples"] = float64(s.Len())
	}

	var delivered, rtx, timeouts int64
	var completed int
	for _, f := range res.Flows {
		delivered += f.Delivered
		rtx += f.Retransmissions
		timeouts += f.Timeouts
		if f.Completed {
			completed++
		}
	}
	var queueDrops, bernoulli, burst, down int
	for _, l := range res.Links {
		queueDrops += l.QueueDrops
		bernoulli += l.BernoulliDrops
		burst += l.BurstDrops
		down += l.DownDrops
	}
	var forwarded int64
	for _, h := range res.Hosts {
		forwarded += int64(h.ForwardedPackets)
	}
	out["total.delivered_bytes"] = float64(delivered)
	if secs := res.EndTime.Seconds(); secs > 0 {
		out["total.goodput_kbps"] = float64(delivered) / secs / 1024
	} else {
		out["total.goodput_kbps"] = 0
	}
	out["total.completed"] = float64(completed)
	out["total.flows"] = float64(len(res.Flows))
	out["total.retransmissions"] = float64(rtx)
	out["total.timeouts"] = float64(timeouts)
	out["total.queue_drops"] = float64(queueDrops)
	out["total.bernoulli_drops"] = float64(bernoulli)
	out["total.burst_drops"] = float64(burst)
	out["total.down_drops"] = float64(down)
	out["total.forwarded_packets"] = float64(forwarded)
	return out
}

func referenceFlattenValue(v reflect.Value, prefix string, out map[string]float64) {
	if v.Type() == seriesSliceType {
		return // summarised under "probe." by Flatten, never walked raw
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.PkgPath != "" { // unexported
				continue
			}
			name := f.Name
			if tag, ok := f.Tag.Lookup("json"); ok {
				tagName, _, _ := strings.Cut(tag, ",")
				if tagName == "-" {
					continue
				}
				if tagName != "" {
					name = tagName
				}
			}
			child := prefix
			// An untagged anonymous struct inlines, exactly as encoding/json
			// would inline it.
			if !(f.Anonymous && f.Type.Kind() == reflect.Struct && f.Tag.Get("json") == "") {
				if child != "" {
					child += "."
				}
				child += name
			}
			referenceFlattenValue(v.Field(i), child, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			referenceFlattenValue(v.Index(i), fmt.Sprintf("%s[%d]", prefix, i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			referenceFlattenValue(v.Elem(), prefix, out)
		}
	case reflect.Bool:
		if v.Bool() {
			out[prefix] = 1
		} else {
			out[prefix] = 0
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() == durationType {
			out[prefix] = time.Duration(v.Int()).Seconds()
		} else {
			out[prefix] = float64(v.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[prefix] = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		out[prefix] = v.Float()
	}
}

// The flattened key space feeds campaign aggregation, the CSV/JSON emitters
// and the invariant checker, so the fast walk must produce exactly the
// reference's keys and values, and FlattenWhere exactly its filtered subset,
// on results that exercise every shape: probe series, CM audits, dynamics
// event records, routing reports behind a pointer, embedded stats structs.
func TestFlattenMatchesReference(t *testing.T) {
	churn := scenario.Churn(scenario.ChurnParams{Duration: 3 * time.Second})
	churn.Probes = []probe.Spec{{Target: "link[0].queue_depth"}, {Target: "cm[s0].cwnd"}}
	flap, err := scenario.Lookup("routeflap")
	if err != nil {
		t.Fatal(err)
	}
	flap.Duration = 2 * time.Second
	for _, spec := range []scenario.Spec{churn, flap} {
		res, err := scenario.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Plant negatives, which a clean run never has, so the filtered form
		// has something to find.
		res.Links[1].QueueDrops = -3
		res.Flows[0].Retransmissions = -1
		want := referenceFlatten(res)
		if got := Flatten(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Flatten differs from the reference (%d keys against %d)", spec.Name, len(got), len(want))
		}
		negative := FlattenWhere(res, func(v float64) bool { return v < 0 })
		for k, v := range want {
			if _, kept := negative[k]; kept != (v < 0) {
				t.Fatalf("%s: FlattenWhere(negative) wrong about %s = %v", spec.Name, k, v)
			}
		}
		if negative["links[1].QueueDrops"] != -3 || negative["flows[0].retransmissions"] != -1 {
			t.Fatalf("%s: planted negatives not found: %v", spec.Name, negative)
		}
	}
}
