package sweep

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The emitters are deterministic by construction: points in expansion order,
// metric keys sorted, floats formatted with strconv's shortest round-trip
// representation. Byte-comparing two emissions is therefore a valid check
// that two executions (serial vs parallel, local vs CI) ran identically.

// sortedMetricKeys returns the point's metric keys in sorted order.
func (p *PointResult) sortedMetricKeys() []string {
	keys := make([]string, 0, len(p.Metrics))
	for k := range p.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// CSV renders the campaign in long format, one row per (point, metric):
//
//	point,<param per axis...>,metric,n,mean,stddev,min,max,p50,p99
//
// Failed points contribute no metric rows (their errors appear in the JSON
// emission).
func (r *CampaignResult) CSV() string {
	var b strings.Builder
	b.WriteString("point")
	for _, p := range r.Params {
		b.WriteByte(',')
		b.WriteString(p)
	}
	b.WriteString(",metric,n,mean,stddev,min,max,p50,p99\n")
	for i := range r.Points {
		pt := &r.Points[i]
		var prefix strings.Builder
		fmt.Fprintf(&prefix, "%d", pt.Index)
		for _, v := range pt.Values {
			prefix.WriteByte(',')
			prefix.WriteString(v.String())
		}
		for _, key := range pt.sortedMetricKeys() {
			s := pt.Metrics[key]
			fmt.Fprintf(&b, "%s,%s,%d,%s,%s,%s,%s,%s,%s\n",
				prefix.String(), key, s.N,
				formatFloat(s.Mean), formatFloat(s.Stddev),
				formatFloat(s.Min), formatFloat(s.Max),
				formatFloat(s.P50), formatFloat(s.P99))
		}
	}
	return b.String()
}

// JSON renders the campaign result as indented JSON (map keys sorted by
// encoding/json, so the bytes are deterministic too).
func (r *CampaignResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders an aligned long-format table for terminals.
func (r *CampaignResult) Table() string {
	header := append([]string{"point"}, r.Params...)
	header = append(header, "metric", "n", "mean", "stddev", "min", "max", "p50", "p99")
	var rows [][]string
	for i := range r.Points {
		pt := &r.Points[i]
		base := []string{fmt.Sprintf("%d", pt.Index)}
		for _, v := range pt.Values {
			base = append(base, v.String())
		}
		if pt.Failed > 0 && len(pt.Metrics) == 0 {
			row := append(append([]string(nil), base...), fmt.Sprintf("(all %d replicate(s) failed)", pt.Failed))
			for len(row) < len(header) {
				row = append(row, "")
			}
			rows = append(rows, row)
			continue
		}
		for _, key := range pt.sortedMetricKeys() {
			s := pt.Metrics[key]
			row := append(append([]string(nil), base...), key,
				fmt.Sprintf("%d", s.N),
				fmt.Sprintf("%.4g", s.Mean), fmt.Sprintf("%.4g", s.Stddev),
				fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Max),
				fmt.Sprintf("%.4g", s.P50), fmt.Sprintf("%.4g", s.P99))
			rows = append(rows, row)
		}
	}
	return FormatTable(header, rows)
}

// FormatTable renders rows of columns under a header, each column padded to
// its widest cell and separated by two spaces, with a dashed rule under the
// header: the aligned text of every terminal table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
