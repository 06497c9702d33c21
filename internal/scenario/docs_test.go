package scenario

import (
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/probe"
)

// TestDocsListTheProbeFields holds docs/OBSERVABILITY.md's target table to
// the probe field tables: each family's row lists exactly its fields, in
// table order, so a field added to a table and not to the docs fails here.
func TestDocsListTheProbeFields(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `([a-z]+)[.\\[][^`]*` \\|[^|]*\\| (.*) \\|$")
	name := regexp.MustCompile("`([a-z_]+)`")
	seen := map[string]bool{}
	for _, m := range row.FindAllStringSubmatch(string(doc), -1) {
		kind := m[1]
		var fields []string
		for _, f := range name.FindAllStringSubmatch(m[2], -1) {
			fields = append(fields, f[1])
		}
		if want := probeFieldNames(kind); !slices.Equal(fields, want) {
			t.Errorf("docs list %s fields %v, the table %v", kind, fields, want)
		}
		seen[kind] = true
	}
	for _, kind := range []string{probe.TargetLink, probe.TargetHost, probe.TargetCM, probe.TargetShard, probe.TargetLinks, probe.TargetHosts} {
		if !seen[kind] {
			t.Errorf("docs have no target row for %s", kind)
		}
	}
}
