package dynamics

import (
	"reflect"
	"testing"
	"time"
)

func TestGeneratorValidate(t *testing.T) {
	good := []Generator{
		{Kind: GenPoissonFlaps, Link: 0},
		{Kind: GenPoissonFlaps, Link: 1, Direction: DirForward, Start: time.Second, End: 2 * time.Second},
	}
	for i, g := range good {
		if err := g.Validate(2); err != nil {
			t.Fatalf("generator %d should validate: %v", i, err)
		}
	}
	bad := []Generator{
		{Kind: "nope", Link: 0},
		{Kind: GenPoissonFlaps, Link: 2},
		{Kind: GenPoissonFlaps, Link: -1},
		{Kind: GenPoissonFlaps, Link: 0, Direction: "sideways"},
		{Kind: GenPoissonFlaps, Link: 0, Start: 2 * time.Second, End: time.Second},
		{Kind: "bandwidth-walk", Link: 0}, // a deleted kind
	}
	for i, g := range bad {
		if err := g.Validate(2); err == nil {
			t.Fatalf("generator %d should fail validation: %+v", i, g)
		}
	}
}

// TestPoissonFlapsExpand checks the structural invariants of the flap
// process: alternating down/up pairs, monotone times inside [Start, End],
// and deterministic re-expansion.
func TestPoissonFlapsExpand(t *testing.T) {
	g := Generator{
		Kind: GenPoissonFlaps, Link: 3, Seed: 7,
		Start: time.Second, End: 60 * time.Second,
		MeanUp: 2 * time.Second, MeanDown: 500 * time.Millisecond,
	}
	evs := g.Expand()
	if len(evs) == 0 || len(evs)%2 != 0 {
		t.Fatalf("expected down/up pairs, got %d events", len(evs))
	}
	prev := g.Start
	for i := 0; i < len(evs); i += 2 {
		down, up := evs[i], evs[i+1]
		if down.Kind != LinkDown || up.Kind != LinkUp {
			t.Fatalf("pair %d kinds = %s/%s", i/2, down.Kind, up.Kind)
		}
		if down.Link != 3 || up.Link != 3 {
			t.Fatalf("pair %d wrong link", i/2)
		}
		if down.At <= prev || up.At <= down.At || up.At > g.End {
			t.Fatalf("pair %d times out of order: prev=%v down=%v up=%v", i/2, prev, down.At, up.At)
		}
		prev = up.At
	}
	if !reflect.DeepEqual(evs, g.Expand()) {
		t.Fatal("expansion not deterministic")
	}
	g2 := g
	g2.Seed = 8
	if reflect.DeepEqual(evs, g2.Expand()) {
		t.Fatal("different seeds should produce different traces")
	}
	for _, ev := range evs {
		if err := ev.Validate(4); err != nil {
			t.Fatalf("expanded event invalid: %v", err)
		}
	}
}

// TestGeneratorZeroWindow: a generator whose window is empty expands to
// nothing rather than panicking.
func TestGeneratorZeroWindow(t *testing.T) {
	g := Generator{Kind: GenPoissonFlaps, Link: 0, Start: time.Second, End: time.Second}
	if evs := g.Expand(); len(evs) != 0 {
		t.Fatalf("empty window expanded to %d events", len(evs))
	}
}
