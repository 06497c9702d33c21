package probe

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("rate")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series should have no last point")
	}
	s.Add(time.Second, 10)
	s.Add(2*time.Second, 20)
	s.Add(3*time.Second, 30)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Mean() != 20 || s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("mean/min/max = %v/%v/%v", s.Mean(), s.Min(), s.Max())
	}
	last, ok := s.Last()
	if !ok || last.V != 30 || last.T != 3*time.Second {
		t.Fatalf("Last = %+v", last)
	}
	if got := s.Values(); len(got) != 3 || got[1] != 20 {
		t.Fatalf("Values = %v", got)
	}
	if p := s.At(0); p.V != 10 {
		t.Fatalf("At(0) = %+v", p)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series stats should be zero")
	}
}

func TestResampleAveragesAndStepFills(t *testing.T) {
	s := NewSeries("x")
	s.Add(100*time.Millisecond, 10)
	s.Add(200*time.Millisecond, 20)
	// gap in (1s,2s)
	s.Add(2100*time.Millisecond, 40)
	rs := s.Resample(0, 3*time.Second, time.Second)
	if rs.Len() != 4 {
		t.Fatalf("resampled length %d, want 4", rs.Len())
	}
	if rs.At(0).V != 15 {
		t.Fatalf("bucket 0 = %v, want 15", rs.At(0).V)
	}
	if rs.At(1).V != 15 {
		t.Fatalf("empty bucket should carry previous value, got %v", rs.At(1).V)
	}
	if rs.At(2).V != 40 {
		t.Fatalf("bucket 2 = %v, want 40", rs.At(2).V)
	}
}

func TestResampleValidation(t *testing.T) {
	s := NewSeries("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Resample with zero width should panic")
		}
	}()
	s.Resample(0, time.Second, 0)
}

func TestResampleEmptyRange(t *testing.T) {
	s := NewSeries("x")
	s.Add(time.Second, 1)
	rs := s.Resample(2*time.Second, time.Second, time.Second)
	if rs.Len() != 0 {
		t.Fatalf("inverted range should produce empty series, got %d", rs.Len())
	}
}

func TestTransitionCount(t *testing.T) {
	s := NewSeries("layer")
	for _, v := range []float64{1, 1, 2, 2, 1, 3, 3} {
		s.Add(0, v)
	}
	if got := s.TransitionCount(); got != 3 {
		t.Fatalf("TransitionCount = %d, want 3", got)
	}
}

func TestCSVOutput(t *testing.T) {
	a := NewSeries("sent")
	b := NewSeries("reported")
	a.Add(time.Second, 1)
	a.Add(2*time.Second, 2)
	b.Add(time.Second, 10)
	out := CSV(a, b)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3: %q", len(lines), out)
	}
	if lines[0] != "time_s,sent,reported" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1.000,1.000,10.000") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",") {
		t.Fatalf("short series should leave trailing empty cell: %q", lines[2])
	}
	if CSV() == "" {
		t.Fatal("CSV with no series should still emit a header")
	}
}

func TestRateEstimatorWindows(t *testing.T) {
	re := NewRateEstimator("tx", time.Second)
	// 1000 bytes in first second, 3000 in the third, nothing in the second.
	re.Record(200*time.Millisecond, 500)
	re.Record(800*time.Millisecond, 500)
	re.Record(2500*time.Millisecond, 3000)
	s := re.Finish()
	if s.Len() != 3 {
		t.Fatalf("series length %d, want 3", s.Len())
	}
	if s.At(0).V != 1000 {
		t.Fatalf("first window rate %v, want 1000", s.At(0).V)
	}
	if s.At(1).V != 0 {
		t.Fatalf("second window rate %v, want 0", s.At(1).V)
	}
	if s.At(2).V != 3000 {
		t.Fatalf("third window rate %v, want 3000", s.At(2).V)
	}
}

func TestRateEstimatorAlignsWindowStart(t *testing.T) {
	re := NewRateEstimator("tx", time.Second)
	re.Record(1700*time.Millisecond, 100)
	s := re.Finish()
	if s.Len() != 1 || s.At(0).T != 2*time.Second {
		t.Fatalf("window should close at 2s, got %+v", s.Points)
	}
}

func TestRateEstimatorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window should panic")
		}
	}()
	NewRateEstimator("x", 0)
}

// Property: the rate estimator conserves bytes — the sum over windows of
// rate*window equals the total bytes recorded.
func TestPropertyRateEstimatorConservesBytes(t *testing.T) {
	f := func(events []uint16) bool {
		re := NewRateEstimator("x", 500*time.Millisecond)
		var total int64
		t := time.Duration(0)
		for _, e := range events {
			t += time.Duration(e%200) * time.Millisecond
			n := int(e%1000) + 1
			total += int64(n)
			re.Record(t, n)
		}
		s := re.Finish()
		var got float64
		for _, p := range s.Points {
			got += p.V * 0.5
		}
		return math.Abs(got-float64(total)) < 1e-6*math.Max(1, float64(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
