package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/race"
)

// measured is what a step of a simulation's life cost: objects allocated
// while it ran and bytes still live after it (two collections later, with
// everything the step built still referenced by the caller).
type measured struct {
	mallocs float64
	live    float64
}

func (a measured) minus(b measured) measured { return measured{a.mallocs - b.mallocs, a.live - b.live} }
func (a measured) per(n int) measured        { return measured{a.mallocs / float64(n), a.live / float64(n)} }

// measure runs step and reports what it cost. The caller keeps what step
// built reachable until measure has returned.
func measure(step func()) measured {
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	return measured{float64(after.Mallocs - before.Mallocs), float64(live.HeapAlloc) - float64(before.HeapAlloc)}
}

// What things cost at rest (docs/PERF.md has the table and the parent's
// numbers). Everything that lives as long as the Sim — hosts, links, link
// names, flow drivers with their results and listeners — comes from a slab per
// kind, so its cost in objects is amortised to almost nothing and its cost in
// bytes is the struct; everything that lives as long as a connection is one
// object per endpoint, and what a finished connection leaves behind is two
// time-wait records and their bindings. Each budget is about a fifth above what
// this tree measures; the parent's figures are in the comments.
//
// Measured on scaled-down ISP access trees, by difference: a tree with more
// subscribers per access router has that many more leaf hosts, each with its
// access link; homing every subscriber to a second access router adds links and
// no hosts, which separates the two.
func TestAtRestBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow allocations count as live heap")
	}
	tree := func(hostsPerAccess int, secondHoming bool) Spec {
		spec, err := ISP(ISPParams{Aggs: 4, AccessPerAgg: 5, HostsPerAccess: hostsPerAccess, Duration: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		spec.Workloads = nil
		if secondHoming {
			for _, l := range spec.Links {
				// "h3.x1.a2" hangs on "x1.a2"; its second home is "x<1+1 mod 5>.a2".
				var m, j, i int
				if _, err := fmt.Sscanf(l.B, "h%d.x%d.a%d", &m, &j, &i); err != nil {
					continue // not a subscriber's access link
				}
				spec.Links = append(spec.Links, LinkSpec{A: fmt.Sprintf("x%d.a%d", (j+1)%5, i), B: l.B, LinkConfig: l.LinkConfig})
			}
		}
		return spec
	}
	var sims []*Sim
	build := func(spec Spec) measured {
		return measure(func() { sims = append(sims, MustBuild(spec)) })
	}
	// 200, 600 and 600 leaf hosts; the third tree has 600 more links.
	small, large, homed := build(tree(10, false)), build(tree(30, false)), build(tree(30, true))
	perLeaf := large.minus(small).per(400) // a leaf host and the two directions of its access link
	perDirection := homed.minus(large).per(2 * 600)
	perHost := perLeaf.minus(measured{2 * perDirection.mallocs, 2 * perDirection.live})
	runtime.KeepAlive(sims)

	// Flows: the same tree with its web clients, 64 requests each.
	spec, err := ISP(ISPParams{Aggs: 4, AccessPerAgg: 5, HostsPerAccess: 10, Clients: 64, Requests: 64, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sim := MustBuild(spec)
	flows := 64 * 64
	perStart := measure(func() {
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
	}).per(flows)
	run := measure(sim.RunToEnd)
	finished := 0
	for _, d := range sim.drivers {
		if d.res.Finished > 0 && d.ep == nil {
			finished++
		}
	}
	if finished < flows*9/10 {
		t.Fatalf("only %d of %d requests dialed and finished", finished, flows)
	}
	perFinished := run.per(finished)

	for _, row := range []struct {
		what          string
		got           measured
		objects, live float64
	}{
		// Parent: 6.28 objects, 481 bytes (Host, two eager maps, a bucket for the
		// route the install then threw away, the table it swapped in, an empty
		// domains map). Now: 0.003 and 314, a slab entry and its share of the
		// host registry and the route engine's arrays.
		{"idle leaf host", perHost, 0.05, 380},
		// Parent: 3.08 objects, 465 bytes (half a Duplex, a Link, one and a half
		// names). Now: 0.005 and 457 — half a 768-byte Duplex, a name, the
		// engine's adjacency and the second home's table entry.
		{"idle link direction", perDirection, 0.05, 550},
		// Parent: 5.33 objects, 679 bytes (flowDriver, FlowResult, Listener, accept
		// and dial closures, dialChain growth). Now: 0.13 and 524 — a slab entry
		// and the listener's binding; the objects are binding-table growth.
		{"flow at Start", perStart, 0.2, 630},
		// Parent: 20.8 objects. Now: 5.8 — two endpoints, the CM's flow record,
		// two time-wait records, and binding-table growth. Live bytes are what
		// TestFinishedConnectionsRetainLittle budgets at 700: 408 here against
		// the parent's 358, which had a 160-byte dial closure per flow to free
		// during the run (Start to Finish a flow now holds 932 bytes, was 1037).
		{"dialed and finished flow over RunToEnd", perFinished, 7, 490},
	} {
		t.Logf("%-40s %6.3f objects %7.1f live bytes", row.what, row.got.mallocs, row.got.live)
		if row.got.mallocs > row.objects || row.got.live > row.live {
			t.Errorf("%s costs %.3f objects and %.0f live bytes, budget %.2f and %.0f",
				row.what, row.got.mallocs, row.got.live, row.objects, row.live)
		}
	}
}
