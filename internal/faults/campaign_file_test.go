package faults

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// TestChurnSoakCampaignFileMatchesDefinition pins
// examples/campaigns/churn-soak.json to the canonical Go definition: `make
// soak-smoke` must run exactly the sweep ChurnSoakCampaign defines.
// Regenerate the file with `go run ./tools/gencampaign` after changing it.
func TestChurnSoakCampaignFileMatchesDefinition(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/churn-soak.json")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := sweep.DecodeCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	want := ChurnSoakCampaign()
	if !reflect.DeepEqual(fromFile, want) {
		t.Fatalf("examples/campaigns/churn-soak.json drifted from ChurnSoakCampaign:\nfile: %+v\ncode: %+v", fromFile, want)
	}
	filePoints, err := fromFile.Expand()
	if err != nil {
		t.Fatal(err)
	}
	codePoints, err := want.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(filePoints, codePoints) {
		t.Fatal("campaign file expands differently from the Go definition")
	}
}
