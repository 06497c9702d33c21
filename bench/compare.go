package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
)

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's direction and bound to the values the parent's
// and the change's runs reported. worse is the share of the parent's median by which
// the change's median is worse (negative when it is better). A pair whose
// run-to-run spread is wider than the bound is unresolved rather than
// unchanged, unless every run of one side beats every run of the other.
func judge(d metricDef, parent, change summary) (verdict string, worse float64) {
	if parent.Median == 0 {
		return verdictUnresolved, 0
	}
	worse = (change.Median - parent.Median) / parent.Median
	if d.Better == higher {
		worse = -worse
	}
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Median }
	// beats reports whether every run of a reads better than every run of b.
	beats := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return false
		}
		if d.Better == higher {
			return slices.Min(a) > slices.Max(b)
		}
		return slices.Max(a) < slices.Min(b)
	}
	if max(spread(parent), spread(change)) > d.Bound {
		switch {
		case beats(change.Values, parent.Values):
			return verdictOK, worse
		case beats(parent.Values, change.Values) && worse > d.Bound:
			return verdictRegressed, worse
		}
		return verdictUnresolved, worse
	}
	if worse > d.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// side is one side of a comparison: the result documents of one or more runs
// of one commit.
type side []*document

func readSide(paths string) (side, error) {
	var s side
	for _, path := range strings.Split(paths, ",") {
		doc, err := readDocument(path)
		if err != nil {
			return nil, err
		}
		s = append(s, doc)
	}
	return s, nil
}

// series returns the value each run of the side reported for the metric.
func (s side) series(workload, metric string) (vs []float64) {
	for _, doc := range s {
		for _, wr := range doc.Workloads {
			if sum, ok := wr.EndToEnd[metric]; ok && wr.Name == workload {
				vs = append(vs, sum.Value)
			}
		}
	}
	return vs
}

// tally returns the side's checks attempted and failed on the workload.
func (s side) tally(workload string) (attempted, failed int) {
	for _, doc := range s {
		for _, wr := range doc.Workloads {
			if wr.Name == workload {
				attempted += wr.Attempted
				failed += wr.Failed
			}
		}
	}
	return attempted, failed
}

// compareRuns prints one row per (workload, end-to-end metric) both sides
// measured, and reports whether any pair regressed or the change failed a
// larger share of its checks than the parent. Each side is a comma-separated
// list of result files; the medians and quartiles are taken over the runs of
// a side, so a single file per side has no spread and is judged on the
// difference alone.
func compareRuns(w io.Writer, parentPaths, changePaths string) (regressed bool, err error) {
	parent, err := readSide(parentPaths)
	if err != nil {
		return false, err
	}
	change, err := readSide(changePaths)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] n\tchange median [q1, q3] n\tdelta\tbound\tverdict")
	rows := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			pv, cv := parent.series(wl.name, d.Name), change.series(wl.name, d.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			ps, cs := describe(pv), describe(cv)
			verdict, _ := judge(d, ps, cs)
			regressed = regressed || verdict == verdictRegressed
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.2f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, ps.Median, ps.Q1, ps.Q3, ps.N, cs.Median, cs.Q1, cs.Q3, cs.N,
				100*(cs.Median-ps.Median)/ps.Median, 100*d.Bound, verdict)
		}
		pa, pf := parent.tally(wl.name)
		ca, cf := change.tally(wl.name)
		if pa == 0 || ca == 0 {
			continue
		}
		// failed_frac: expected 0 on both sides; any rise is a regression.
		verdict := verdictOK
		if float64(cf)/float64(ca) > float64(pf)/float64(pa) {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%d/%d\t%d/%d\t\t0\t%s\n", wl.name, pf, pa, cf, ca, verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no workload with end-to-end metrics", parentPaths, changePaths)
	}
	return regressed, nil
}
