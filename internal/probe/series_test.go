package probe

import (
	"strings"
	"testing"
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
