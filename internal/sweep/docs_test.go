package sweep

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestDocsListTheTotals holds docs/SWEEPS.md's total.* keys to the ones
// Flatten emits, so a total added without docs fails here.
func TestDocsListTheTotals(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SWEEPS.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("`(total\\.[a-z_]+)`").FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	var emitted []string
	for k := range Flatten(&scenario.Result{}) {
		if strings.HasPrefix(k, "total.") {
			emitted = append(emitted, k)
		}
	}
	slices.Sort(documented)
	slices.Sort(emitted)
	if documented = slices.Compact(documented); !slices.Equal(documented, emitted) {
		t.Errorf("docs/SWEEPS.md lists %v, Flatten emits %v", documented, emitted)
	}
}
