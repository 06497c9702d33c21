package probe

import (
	"strings"
	"testing"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("rate")
	s.Add(time.Second, 10)
	s.Add(2*time.Second, 20)
	s.Add(3*time.Second, 30)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got, want := s.Summary(), (Summary{Samples: 3, Mean: 20, Min: 10, Max: 30, Last: 30}); got != want {
		t.Fatalf("Summary = %+v, want %+v", got, want)
	}
	if p := s.At(2); p.V != 30 || p.T != 3*time.Second {
		t.Fatalf("At(2) = %+v", p)
	}
	if p := s.At(0); p.V != 10 {
		t.Fatalf("At(0) = %+v", p)
	}
}

func TestEmptySeriesStats(t *testing.T) {
	s := NewSeries("empty")
	if got := s.Summary(); got != (Summary{}) {
		t.Fatalf("empty series summary = %+v, want zero", got)
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
