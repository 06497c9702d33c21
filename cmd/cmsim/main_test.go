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
// A campaign file is input too: a misspelt field, or a link or Gilbert-Elliott
// knob the simulator no longer has, is named rather than ignored.
func TestBadInputExitsTwo(t *testing.T) {
	dir := t.TempDir()
	// campaign writes a one-point campaign file with JSON members spliced
	// into its link, its workload, its base spec and the campaign itself.
	type splice struct{ link, workload, base, top string }
	campaign := func(name string, sp splice) string {
		path := filepath.Join(dir, name+".json")
		body := `{"base": {"links": [{"a": "s", "b": "r"` + sp.link + `}],
			"workloads": [{"kind": "bulk", "from": "s", "to": "r", "bytes": 1000` + sp.workload + `}], "duration": 1000000000` + sp.base + `},
			"axes": [{"param": "link[0].loss", "values": [0]}]` + sp.top + `}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		args []string
		says string
	}{
		{[]string{"-scenario", "p2p", "-runs", "-3"}, "-runs -3: want at least 1"},
		{[]string{"-scenario", "p2p", "-sweep", "link[0].loss=0", "-replicates", "-1"}, "-replicates -1: want at least 1"},
		{[]string{"-scenario", "p2p", "-shards", "-2"}, "-shards -2: want at least 0"},
		{[]string{"-scenario", "p2p", "-parallel", "-1"}, "-parallel -1: want at least 0"},
		{[]string{"-scenario", "p2p", "-trace-depth", "-5"}, "-trace-depth -5: want at least 0"},
		{[]string{"-scenario", "p2p", "-snapshot-every", "-1s"}, "-snapshot-every -1s: want at least 0s"},
		{[]string{"-campaign", campaign("typo", splice{top: `, "replicate": 3`})}, `unknown field "replicate"`},
		{[]string{"-campaign", campaign("replicates", splice{top: `, "replicates": -2`})}, "campaign replicates -2: want at least 0"},
		{[]string{"-campaign", campaign("shards", splice{top: `, "shards": -1`})}, "campaign shards -1: want at least 0"},
		{[]string{"-campaign", campaign("reorder", splice{link: `, "reorder_rate": 0.1`})}, `unknown field "reorder_rate"`},
		{[]string{"-campaign", campaign("tick", splice{link: `, "gilbert": {"p_good_bad": 0.1, "p_bad_good": 0.5, "tick": 10000000}`})}, `unknown field "tick"`},
		{[]string{"-campaign", campaign("route_proto", splice{base: `, "route_sync": "protocol", "route_proto": {"holddown": 1000000}`})}, `unknown field "route_proto"`},
		{[]string{"-campaign", campaign("port", splice{workload: `, "port": 7000`})}, `unknown field "port"`},
		{[]string{"-campaign", campaign("set-loss", splice{base: `, "events": [{"at": 500000000, "kind": "set-loss", "link": 0, "loss_rate": 0.1}]`})}, `unknown field "loss_rate"`},
		{[]string{"-campaign", campaign("set-loss-kind", splice{base: `, "events": [{"at": 500000000, "kind": "set-loss", "link": 0}]`})}, `event kind "set-loss" unknown`},
		{[]string{"-scenario", "p2p", "-probe", "nosuch[0].depth"}, `invalid value "nosuch[0].depth" for flag -probe`},
		{[]string{"-scenario", "nosuch"}, `unknown scenario "nosuch"`},
		{nil, "nothing to run"},
		{[]string{"-scenario", "dumbbell", "-param", "k=4"}, `scenario "dumbbell": unknown parameter "k" (takes none)`},
		{[]string{"-scenario", "p2p", "-param", "flows=1.5"}, `parameter "flows" must be an integer, got 1.5`},
		{[]string{"-scenario", "p2p", "-param", "queue=-1"}, `link 0: negative queue limit`},
		{[]string{"-scenario", "p2p", "-param", "loss=2"}, `link 0: loss_rate 2 out of [0,1]`},
		{[]string{"-scenario", "p2p", "-param", "bandwidth=-1"}, `link 0: bandwidth -1 negative`},
		{[]string{"-scenario", "p2p", "-param", "duration=-1"}, `negative duration -1s`},
		{[]string{"-scenario", "p2p", "-param", "bytes=-5"}, `workload 0 bytes -5 negative`},
		{[]string{"-scenario", "p2p", "-sweep", "workload[0].flows=2.5"}, `param "workload[0].flows" must be an integer, got 2.5`},
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

// A campaign point whose every replicate fails to run is a failed run, as in
// scenario mode: the table still prints, stderr names the point and its first
// error, and the exit status is 1.
func TestFailedCampaignPointExitsOne(t *testing.T) {
	for _, tc := range []struct{ axis, says string }{
		{"link[0].loss=0,2", `point 1: 1 of 1 replicate(s) failed: scenario "p2p": link 0: loss_rate 2 out of [0,1]`},
		{"duration=-1", `point 0: 1 of 1 replicate(s) failed: scenario "p2p": negative duration -1s`},
		{"workload[0].flows=-1", `workload 0 flows -1 negative`},
		{"workload[0].bytes=-1", `workload 0 bytes -1 negative`},
		{"workload[0].recv_window=-1", `workload 0 recv_window -1 negative`},
	} {
		code, out, errOut := cmsim("-scenario", "p2p", "-param", "duration=1", "-sweep", tc.axis)
		if code != 1 {
			t.Errorf("%s: exit status %d, want 1", tc.axis, code)
		}
		if !strings.Contains(out, "replicate(s) failed") {
			t.Errorf("%s: the table does not show the failed point:\n%s", tc.axis, out)
		}
		if !strings.Contains(errOut, tc.says) {
			t.Errorf("%s: stderr does not say %q:\n%s", tc.axis, tc.says, errOut)
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
