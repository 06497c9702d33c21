package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
		{nil, "nothing to run"},
		{[]string{"-scenario", "dumbbell", "-param", "k=4"}, `scenario "dumbbell": unknown parameter "k" (takes none)`},
		{[]string{"-scenario", "p2p", "-param", "flows=1.5"}, `parameter "flows" must be an integer, got 1.5`},
		{[]string{"-scenario", "p2p", "-param", "queue=-1"}, `link 0: negative queue limit`},
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

// The human-readable summary is pinned byte for byte. The p2p files were
// made by the point-to-point mode the p2p scenarios replace (cmsim;
// cmsim -flows 8 -loss 2 -bytes 500000; cmsim -cc native -flows 2 -loss 1
// -seed 7), whose defaults were a 60 ms round trip, 2 000 000 bytes, a
// one-hour deadline and seed 1; p2p_native.golden names its scenario
// p2p-native, where that mode printed p2p.
func TestHumanOutputGolden(t *testing.T) {
	legacy := []string{"-param", "delay=0.03", "-param", "duration=3600"}
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"p2p", append([]string{"-scenario", "p2p", "-param", "bytes=2000000", "-param", "seed=1"}, legacy...)},
		{"p2p_lossy", append([]string{"-scenario", "p2p", "-param", "flows=8", "-param", "loss=0.02",
			"-param", "bytes=500000", "-param", "seed=1"}, legacy...)},
		{"p2p_native", append([]string{"-scenario", "p2p-native", "-param", "flows=2", "-param", "loss=0.01",
			"-param", "bytes=2000000", "-param", "seed=7"}, legacy...)},
		{"dumbbell", []string{"-scenario", "dumbbell"}},
	} {
		path := filepath.Join("testdata", tc.golden+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut := cmsim(tc.args...)
		if code != 0 || errOut != "" {
			t.Fatalf("%q: exit status %d, stderr:\n%s", tc.args, code, errOut)
		}
		if out != string(want) {
			t.Errorf("%q: output differs from %s:\n%s", tc.args, path, out)
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
