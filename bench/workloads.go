package main

import (
	"fmt"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// A workload is one set of inputs the benchmark runs. Exactly one of spec and
// campaign is set. Everything here is frozen: a later PR is measured with the
// same durations, K values and seeds-to-inputs mapping, so changing any of
// them invalidates every earlier baseline.
type workload struct {
	name string
	why  string
	// setupK is the number of back-to-back Build+Start calls in one timed
	// set-up block, sized so a block lasts at least ~0.2 s.
	setupK int
	// encodeK is the number of back-to-back Check+Marshal calls in one timed
	// encode block, sized so a block lasts at least ~20 ms.
	encodeK int
	// spec builds the simulation's Spec from the workload seed. scale
	// multiplies the simulated duration (and shrinks the ISP tree); it is 1
	// except in tests.
	spec func(seed int64, scale float64) (scenario.Spec, error)
	// batch, when above 1, makes one repetition that many simulations run
	// back to back, each built from its own seed derived from the workload
	// seed; their times and counts add up to the repetition's.
	batch int
	// campaign builds the sweep campaign from the workload seed.
	campaign func(seed int64, scale float64) (sweep.Campaign, error)
	// serialTwin asks for one extra run of the same spec with Shards = 0,
	// whose digest the sharded runs must reproduce byte for byte.
	serialTwin bool
}

// Simulated durations are sized so one RunToEnd takes about a second of wall
// time on the 2-core reference container: a 10-second run then holds six to
// ten repetitions, enough for a steady median.
const (
	gridDuration    = 20 * time.Second
	fatTreeDuration = 14 * time.Second
	ispDuration     = 10 * time.Second
)

// The churn workload is a soak: churnBatch independently seeded simulations of
// churnDuration each, 1000 simulated seconds in all, which is also how the
// repository uses the scenario (make churn-soak: many short seeded runs). One
// long simulation will not do. In 11 of 30 seeds tried the backlogged TCP
// stream stops for good at some point of a 1000 s run (it delivers nothing
// from then to the end), so the traffic of the run, and with it every rate
// and ratio, depends on when that happens: over those 30 seeds events per
// simulated second spread 15% (IQR / median) and ranged over 29%, allocations
// per packet-hop 5% and 11%. Forty 25 s simulations lose at most the rest of
// one of them to a stall: 2.1% and 6.4%, allocations 0.6% and 2.6%.
const (
	churnDuration = 25 * time.Second
	churnBatch    = 40
)

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

func scaledCount(n int, scale float64, floor int) int {
	if m := int(float64(n) * scale); m > floor {
		return m
	}
	return floor
}

func gridSpec(cc string, shards int) func(int64, float64) (scenario.Spec, error) {
	return func(seed int64, scale float64) (scenario.Spec, error) {
		spec := scenario.DumbbellGrid(scenario.GridParams{
			CC: cc, Duration: scaled(gridDuration, scale), Seed: seed,
		})
		spec.Shards = shards
		return spec, nil
	}
}

var workloads = []workload{
	{
		name:   "grid64_cm",
		why:    "canonical run: 64 nodes, CM-controlled TCP over 2-4 hops; simtime, netsim, tcp and cm do nearly all the work",
		setupK: 200, encodeK: 30,
		spec: gridSpec(scenario.CCCM, 0),
	},
	{
		name:   "grid64_native",
		why:    "bypass twin of grid64_cm: same topology and traffic, CM does no work; a CM change must leave this flat",
		setupK: 300, encodeK: 30,
		spec: gridSpec(scenario.CCNative, 0),
	},
	{
		name:   "grid64_cm_shards2",
		why:    "grid64_cm on 2 shards: keyed ordering, hand-off queues, lookahead windows and barriers; must equal serial byte for byte",
		setupK: 200, encodeK: 30,
		spec:       gridSpec(scenario.CCCM, 2),
		serialTwin: true,
	},
	{
		name:   "fattree_k4_protocol",
		why:    "6-hop paths under hierarchical tables with live routing agents: node forwarding and netsim dominate, tcp and cm are small",
		setupK: 300, encodeK: 60,
		spec: func(seed int64, scale float64) (scenario.Spec, error) {
			spec, err := scenario.FatTree(scenario.FatTreeParams{
				K: 4, Duration: scaled(fatTreeDuration, scale), Seed: seed,
			})
			spec.RouteSync = scenario.RouteSyncProtocol
			return spec, err
		},
	},
	{
		name:   "isp_web",
		why:    "10k-host ISP tree actually run: set-up, memory and result-size dominated, 16k short web flows stress connection handling",
		setupK: 5, encodeK: 1,
		spec: func(seed int64, scale float64) (scenario.Spec, error) {
			return scenario.ISP(scenario.ISPParams{
				Aggs: 16, AccessPerAgg: 25, HostsPerAccess: scaledCount(25, scale, 2),
				Clients: scaledCount(256, scale, 4), Requests: 64,
				Duration: scaled(ispDuration, scale), Seed: seed,
			})
		},
	},
	{
		name:   "churn_layered",
		why:    "soak of 40 seeded 25 s runs: adaptive layered UDP through libcm under CM restarts, notify faults, link flaps and a host move; timers and dynamics dominate",
		setupK: 50, encodeK: 8,
		spec: func(seed int64, scale float64) (scenario.Spec, error) {
			return scenario.Churn(scenario.ChurnParams{
				Duration: scaled(churnDuration, scale), Seed: seed,
			}), nil
		},
		batch: churnBatch,
	},
	{
		name:   "campaign_dumbbell",
		why:    "72 short dumbbell runs on 2 workers, aggregated and emitted: build, teardown, GC, flatten and emit dominate",
		setupK: 300, encodeK: 2,
		campaign: func(seed int64, scale float64) (sweep.Campaign, error) {
			base, err := scenario.Lookup("dumbbell")
			base.Duration = scaled(base.Duration, scale)
			return sweep.Campaign{
				Name: "cmperf-dumbbell",
				Base: &base,
				Axes: []sweep.Axis{
					{Param: "link[0].loss", Values: []float64{0, 0.005, 0.01, 0.02}},
					{Param: "workload[0].flows", Values: []float64{1, 2, 4}},
				},
				Replicates: scaledCount(6, scale, 1),
				Seed:       seed,
			}, err
		},
	},
}

// subSeed derives the seed of simulation i of a batch from the workload seed.
// Both steps are splitmix64's finalizer, so neighbouring workload seeds share
// no simulation and small seeds are as good as large ones.
func subSeed(seed int64, i int) int64 {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	return int64(mix(mix(uint64(seed))+uint64(i)) >> 1)
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
