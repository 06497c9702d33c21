package scenario

import (
	"reflect"
	"testing"
)

// TestRepeatedRunsAreIdentical pins the weakest determinism property: running
// the same spec twice in the same process gives the same result.
func TestRepeatedRunsAreIdentical(t *testing.T) {
	spec, err := Lookup("dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same spec differ")
	}
}
