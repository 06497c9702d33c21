// Package probe is the simulation-wide observability layer: declarative
// mid-run sampling probes (time series), a zero-allocation flight recorder of
// structured trace events, and wall-clock execution timelines exported as
// Chrome trace_event JSON.
//
// The package deliberately imports nothing but the standard library so every
// layer of the simulator (netsim, cm, scenario, sweep) can depend on it
// without cycles. Everything here is observation-only: nothing consumes
// random numbers or mutates simulation state.
package probe

import (
	"fmt"
	"strings"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	T time.Duration `json:"t"`
	V float64       `json:"v"`
}

// Series is an append-only time series. Fields are exported (unlike the old
// internal/trace predecessor) so a scenario Result carrying probe series can
// be JSON-encoded and byte-compared across serial/parallel/sharded runs.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// NewSeries returns an empty series with the given name.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples are kept in the order they are added, which
// callers keep non-decreasing in time.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.Points[i] }

// Freeze returns a value copy of the series whose Points slice is detached
// from the live one, so a result collected mid-run (a snapshot) is immune to
// later sampling appends.
func (s *Series) Freeze() Series {
	return Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
}

// Summary condenses a series into the figures the run report and the sweep's
// probe.<name>.* metrics carry. Every figure reads 0 for an empty series.
type Summary struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Last    float64 `json:"last"`
}

// Summary returns the series' summary; the mean adds the samples in order.
func (s *Series) Summary() Summary {
	n := len(s.Points)
	if n == 0 {
		return Summary{}
	}
	first := s.Points[0].V
	sum := Summary{Samples: n, Min: first, Max: first, Last: s.Points[n-1].V}
	var total float64
	for _, p := range s.Points {
		total += p.V
		if p.V < sum.Min {
			sum.Min = p.V
		}
		if p.V > sum.Max {
			sum.Max = p.V
		}
	}
	sum.Mean = total / float64(n)
	return sum
}

// CSV renders the series (or several series sharing timestamps) as CSV with a
// header row; times are in seconds.
func CSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("time_s")
	for _, s := range series {
		b.WriteString(",")
		b.WriteString(s.Name)
	}
	b.WriteString("\n")
	if len(series) == 0 {
		return b.String()
	}
	n := 0
	for _, s := range series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	for i := 0; i < n; i++ {
		var t time.Duration
		for _, s := range series {
			if i < s.Len() {
				t = s.At(i).T
				break
			}
		}
		fmt.Fprintf(&b, "%.3f", t.Seconds())
		for _, s := range series {
			if i < s.Len() {
				fmt.Fprintf(&b, ",%.3f", s.At(i).V)
			} else {
				b.WriteString(",")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
