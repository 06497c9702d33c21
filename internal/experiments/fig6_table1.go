package experiments

import (
	"fmt"
	"time"

	"repro/internal/apicost"
	"repro/internal/sweep"
)

// Table1Result reproduces Table 1: cumulative sources of per-packet overhead
// for the different CM APIs relative to sending data with TCP.
type Table1Result struct {
	Rows []apicost.Table1Row
}

// RunTable1 builds Table 1 from the API cost model.
func RunTable1(costs apicost.CostModel) Table1Result {
	if costs == (apicost.CostModel{}) {
		costs = apicost.DefaultCosts()
	}
	return Table1Result{Rows: apicost.Table1(costs)}
}

// Table renders Table 1.
func (r Table1Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		delta := "-"
		if row.DeltaAtMTU > 0 {
			delta = fmt.Sprintf("+%.1fus", float64(row.DeltaAtMTU)/float64(time.Microsecond))
		}
		rows = append(rows, []string{row.Variant.String(), row.AddedOps, delta})
	}
	return "Table 1: cumulative sources of overhead for the CM APIs (relative to TCP)\n" +
		sweep.FormatTable([]string{"API", "added operations", "added cost/pkt"}, rows)
}

// Fig6Config parameterises the API-overhead comparison of Figure 6: modelled
// wall-clock microseconds per packet as a function of packet size for the six
// transmission APIs, on a loss-free 100 Mbps path.
type Fig6Config struct {
	// PacketSizes is the x axis in bytes.
	PacketSizes []int
	// Costs is the operation cost model.
	Costs apicost.CostModel
}

func (c *Fig6Config) fillDefaults() {
	if len(c.PacketSizes) == 0 {
		c.PacketSizes = []int{64, 168, 256, 400, 552, 700, 900, 1100, 1300, 1400}
	}
	if c.Costs == (apicost.CostModel{}) {
		c.Costs = apicost.DefaultCosts()
	}
}

// Fig6Point is one (variant, size) cell of Figure 6.
type Fig6Point struct {
	Size    int
	Variant apicost.Variant
	PerPkt  time.Duration
}

// Fig6Result is the reproduction of Figure 6.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
	// WorstCaseReduction is the throughput reduction of ALF/noconnect
	// relative to TCP/CM-nodelay at the smallest measured size (the paper
	// reports ~25 % at 168-byte packets).
	WorstCaseReduction float64
}

// RunFig6 evaluates the cost model across packet sizes and variants.
func RunFig6(cfg Fig6Config) Fig6Result {
	cfg.fillDefaults()
	res := Fig6Result{Config: cfg}
	for _, size := range cfg.PacketSizes {
		for _, v := range apicost.Variants() {
			res.Points = append(res.Points, Fig6Point{
				Size:    size,
				Variant: v,
				PerPkt:  apicost.PerPacketCost(v, size, cfg.Costs),
			})
		}
	}
	base := apicost.Throughput(apicost.TCPCMNoDelay, 168, cfg.Costs)
	worst := apicost.Throughput(apicost.ALFNoConnect, 168, cfg.Costs)
	if base > 0 {
		res.WorstCaseReduction = 1 - worst/base
	}
	return res
}

// Table renders Figure 6 as one row per packet size with one column per API.
func (r Fig6Result) Table() string {
	variants := apicost.Variants()
	header := []string{"size(B)"}
	for _, v := range variants {
		header = append(header, v.String()+" us/pkt")
	}
	bySize := map[int]map[apicost.Variant]time.Duration{}
	var sizes []int
	for _, p := range r.Points {
		if _, ok := bySize[p.Size]; !ok {
			bySize[p.Size] = map[apicost.Variant]time.Duration{}
			sizes = append(sizes, p.Size)
		}
		bySize[p.Size][p.Variant] = p.PerPkt
	}
	rows := make([][]string, 0, len(sizes))
	for _, size := range sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, v := range variants {
			row = append(row, fmt.Sprintf("%.1f", float64(bySize[size][v])/float64(time.Microsecond)))
		}
		rows = append(rows, row)
	}
	return fmt.Sprintf("Figure 6: per-packet cost by API and packet size (worst-case throughput reduction %.0f%%)\n",
		100*r.WorstCaseReduction) + sweep.FormatTable(header, rows)
}
