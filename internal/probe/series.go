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

// Add appends a sample. Samples should be added in non-decreasing time order;
// out-of-order samples are accepted but Resample assumes ordering.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.Points[i] }

// Last returns the most recent sample and whether the series is non-empty.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// Freeze returns a value copy of the series whose Points slice is detached
// from the live one, so a result collected mid-run (a snapshot) is immune to
// later sampling appends.
func (s *Series) Freeze() Series {
	return Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Mean returns the arithmetic mean of the sample values (0 for an empty
// series).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Min and Max return the extreme sample values (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Max returns the maximum sample value.
func (s *Series) Max() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Resample buckets the series into fixed-width intervals between start and
// end, averaging the samples in each bucket. Empty buckets carry the previous
// bucket's value (step interpolation), which matches how the paper's figures
// present adaptation traces.
func (s *Series) Resample(start, end, width time.Duration) *Series {
	if width <= 0 {
		panic("probe: Resample width must be positive")
	}
	out := NewSeries(s.Name)
	if end < start {
		return out
	}
	var prev float64
	i := 0
	pts := s.Points
	for t := start; t <= end; t += width {
		var sum float64
		var n int
		for i < len(pts) && pts[i].T < t+width {
			if pts[i].T >= t {
				sum += pts[i].V
				n++
			}
			i++
		}
		v := prev
		if n > 0 {
			v = sum / float64(n)
		}
		out.Add(t, v)
		prev = v
	}
	return out
}

// TransitionCount returns the number of adjacent samples whose values differ,
// a measure of how often an adaptive application switched layers; used to
// compare the ALF and rate-callback traces (Fig. 8 vs Fig. 9).
func (s *Series) TransitionCount() int {
	n := 0
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].V != s.Points[i-1].V {
			n++
		}
	}
	return n
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

// RateEstimator converts byte-count events into a rate series by accumulating
// bytes over fixed windows. The window width trades smoothing against
// responsiveness; the experiments use 250–1000 ms windows, similar to the
// granularity visible in the paper's figures.
type RateEstimator struct {
	window      time.Duration
	windowStart time.Duration
	bytes       int64
	series      *Series
	started     bool
}

// NewRateEstimator returns an estimator producing a series with the given
// name from byte arrivals, in bytes per second.
func NewRateEstimator(name string, window time.Duration) *RateEstimator {
	if window <= 0 {
		panic("probe: RateEstimator window must be positive")
	}
	return &RateEstimator{window: window, series: NewSeries(name)}
}

// Record accumulates n bytes observed at time t, closing windows as needed.
func (r *RateEstimator) Record(t time.Duration, n int) {
	if !r.started {
		r.windowStart = t - t%r.window
		r.started = true
	}
	for t >= r.windowStart+r.window {
		r.flush()
	}
	r.bytes += int64(n)
}

func (r *RateEstimator) flush() {
	rate := float64(r.bytes) / r.window.Seconds()
	r.series.Add(r.windowStart+r.window, rate)
	r.windowStart += r.window
	r.bytes = 0
}

// Finish closes the current window (if any bytes are pending) and returns the
// series of rates in bytes/second.
func (r *RateEstimator) Finish() *Series {
	if r.started && r.bytes > 0 {
		r.flush()
	}
	return r.series
}

// Series returns the (possibly still growing) series.
func (r *RateEstimator) Series() *Series { return r.series }
