package experiments

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// TestFig3CampaignFileMatchesDefinition pins examples/campaigns/fig3.json to
// the canonical Go definition: `cmsim -campaign examples/campaigns/fig3.json`
// must run exactly the sweep RunFig3 runs. Regenerate the file with
// `go run ./tools/gencampaign` after changing Fig3Campaign.
func TestFig3CampaignFileMatchesDefinition(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/fig3.json")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := sweep.DecodeCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	want := Fig3Campaign(Fig3Config{})
	if !reflect.DeepEqual(fromFile, want) {
		t.Fatalf("examples/campaigns/fig3.json drifted from Fig3Campaign:\nfile: %+v\ncode: %+v", fromFile, want)
	}
	// And the expansions — what actually runs — agree too.
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
