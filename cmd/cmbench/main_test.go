package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The two analytic experiments are deterministic and take milliseconds, so
// their output is pinned byte for byte (generated by the command itself:
// cmbench -quick -experiment fig6,table1).
func TestQuickFig6Table1Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_fig6_table1.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-experiment", "fig6,table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, stderr:\n%s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("output differs from testdata/quick_fig6_table1.golden:\n%s", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr:\n%s", stderr.String())
	}
}

func TestBadSelectionExitsWithUsage(t *testing.T) {
	for _, sel := range []string{"perf", "fig6,nosuch", "", " , "} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-quick", "-experiment", sel}, &stdout, &stderr); code != 2 {
			t.Errorf("-experiment %q: exit status %d, want 2", sel, code)
		}
		if !strings.Contains(stderr.String(), "Usage of cmbench") {
			t.Errorf("-experiment %q: no usage on stderr:\n%s", sel, stderr.String())
		}
	}
}

// The usage string must list exactly what -experiment accepts: every listed
// name runs (under -quick, half a second for all of them), "all" is the listed
// names minus failure, and the catalog holds nothing the usage leaves out.
func TestUsageListsExactlyTheAcceptedExperiments(t *testing.T) {
	var usage bytes.Buffer
	run([]string{"-experiment", "nosuch"}, io.Discard, &usage)
	m := regexp.MustCompile(`experiment to run: ([a-z0-9, ]+) \(default "all"\)`).FindStringSubmatch(usage.String())
	if m == nil {
		t.Fatalf("no experiment list in the usage:\n%s", usage.String())
	}
	listed := strings.Split(m[1], ", ")
	if listed[0] != "all" || len(listed) != 1+len(catalog) {
		t.Fatalf("usage lists %v, catalog has %d experiments", listed, len(catalog))
	}
	var each bytes.Buffer
	for _, name := range listed[1:] {
		var stderr bytes.Buffer
		if code := run([]string{"-quick", "-experiment", name}, &each, &stderr); code != 0 {
			t.Fatalf("listed experiment %q: exit status %d, stderr:\n%s", name, code, stderr.String())
		}
	}
	var all, failure bytes.Buffer
	if code := run([]string{"-quick"}, &all, io.Discard); code != 0 {
		t.Fatalf("all: exit status %d", code)
	}
	run([]string{"-quick", "-experiment", "failure"}, &failure, io.Discard)
	if each.String() != all.String()+failure.String() {
		t.Fatal("\"all\" did not print what the listed experiments other than failure print one by one")
	}
}
