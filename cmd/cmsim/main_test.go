package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// cmsim runs args and returns its exit status, stdout and stderr.
func cmsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListPrintsTheCatalogue(t *testing.T) {
	code, out, errOut := cmsim("-list")
	if code != 0 || errOut != "" {
		t.Fatalf("exit status %d, stderr:\n%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	names := scenario.List()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines for %d scenarios:\n%s", len(lines), len(names), out)
	}
	for i, name := range names {
		if fields := strings.Fields(lines[i]); len(fields) == 0 || fields[0] != name {
			t.Errorf("line %d is %q, want scenario %q first", i, lines[i], name)
		}
	}
}

func TestScenarioJSONDecodes(t *testing.T) {
	code, out, errOut := cmsim("-scenario", "p2p", "-json")
	if code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, errOut)
	}
	var outcomes []scenario.RunOutcome
	if err := json.Unmarshal([]byte(out), &outcomes); err != nil {
		t.Fatalf("stdout is not a JSON list of outcomes: %v", err)
	}
	if len(outcomes) != 1 || outcomes[0].Err != "" || outcomes[0].Result == nil {
		t.Fatalf("want one outcome with a result and no error, got %+v", outcomes)
	}
	if got := outcomes[0].Result.Scenario; got != "p2p" {
		t.Fatalf("result names scenario %q, want p2p", got)
	}
}

// Input mistakes exit 2, like a bad flag, and say what was wrong on stderr.
func TestBadInputExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-scenario", "p2p", "-probe", "nosuch[0].depth"}, `invalid value "nosuch[0].depth" for flag -probe`},
		{[]string{"-scenario", "nosuch"}, `unknown scenario "nosuch"`},
	} {
		code, out, errOut := cmsim(tc.args...)
		if code != 2 {
			t.Errorf("%q: exit status %d, want 2", tc.args, code)
		}
		if out != "" {
			t.Errorf("%q: unexpected stdout:\n%s", tc.args, out)
		}
		if !strings.Contains(errOut, tc.says) {
			t.Errorf("%q: stderr does not say %q:\n%s", tc.args, tc.says, errOut)
		}
	}
}

func TestChurnPassesInvariantCheck(t *testing.T) {
	if code, _, errOut := cmsim("-scenario", "churn", "-check-invariants"); code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, errOut)
	}
}

// The sweep emitter's CSV is the same bytes whatever the number of workers.
func TestSweepCSVIdenticalAcrossParallelism(t *testing.T) {
	csv := func(parallel string) string {
		code, out, errOut := cmsim("-scenario", "p2p", "-sweep", "link[0].loss=0,0.01,0.02", "-csv", "-parallel", parallel)
		if code != 0 {
			t.Fatalf("-parallel %s: exit status %d, stderr:\n%s", parallel, code, errOut)
		}
		return out
	}
	serial, parallel := csv("1"), csv("4")
	if !strings.HasPrefix(serial, "point,link[0].loss,metric,") {
		t.Fatalf("not the sweep CSV:\n%s", serial)
	}
	if serial != parallel {
		t.Fatal("CSV at -parallel 4 differs from -parallel 1")
	}
}
