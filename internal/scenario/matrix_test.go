package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/race"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from this tree")

// tail is how long a cell runs past the end of its spec's last declared
// event (a host move ends when its outage does), capped at the spec's own
// duration: long enough for routes to reconverge and flows to recover, and
// for a scenario without events, long enough to carry traffic.
const tail = 2 * time.Second

// The shard counts every class runs at, and the executors its cells are dealt
// to: 0 is the direct one (Build with the profiler armed, snapshots checked),
// the others the batch runner at that many workers.
var (
	shardCounts = []int{1, 2, 4}
	executors   = []int{0, 1, 4}
)

// knownViolations names the classes whose cells break an invariant through a
// fault recorded in CHANGES.md (FOUND) and not yet mended, with the rule they
// break. Their cells still run and must still agree byte for byte; only that
// rule is forgiven, and an entry whose violation no longer occurs fails the
// test, so it goes when the fault is mended.
var knownViolations = map[string]string{}

// class is one equivalence class of the matrix: a registry scenario under a
// (Routing, RouteSync) pair that Spec.Validate accepts, at one seed. Its
// cells differ only in shard count and executor, so their Perf-stripped JSON
// Results must be the same bytes.
type class struct {
	name, routing, sync string
	seed                int64
	spec                scenario.Spec
}

func (c class) key() string {
	return fmt.Sprintf("%s routing=%s sync=%s seed=%d", c.name, c.routing, c.sync, c.seed)
}

// matrix lists every class: every registry scenario × every mode pair its
// spec validates under × seeds 1–3, each spec armed for its cells.
func matrix() ([]class, error) {
	var out []class
	for _, name := range scenario.List() {
		base, err := scenario.Lookup(name)
		if err != nil {
			return nil, err
		}
		n := len(out)
		for _, routing := range []string{scenario.RoutingExact, scenario.RoutingHier} {
			for _, sync := range []string{scenario.RouteSyncOracle, scenario.RouteSyncProtocol} {
				spec := base
				spec.Routing, spec.RouteSync = routing, sync
				if spec.Validate() != nil {
					continue
				}
				for seed := int64(1); seed <= 3; seed++ {
					out = append(out, class{name, routing, sync, seed, armed(spec, seed)})
				}
			}
		}
		if len(out) == n {
			return nil, fmt.Errorf("registry scenario %s validates under no mode pair", name)
		}
	}
	return out, nil
}

// armed returns the spec of a class: its seed, its length, probes on every
// link and CM and summed over every link direction and node, a snapshot per
// default probe interval and the flight recorder.
func armed(spec scenario.Spec, seed int64) scenario.Spec {
	spec.Seed = seed
	last := time.Duration(0)
	for _, ev := range spec.Events {
		last = max(last, ev.At+ev.Outage)
	}
	spec.Duration = min(spec.Duration, last+tail)
	spec.Probes = nil
	add := func(prefix string, fields []string) {
		for _, f := range fields {
			spec.Probes = append(spec.Probes, probe.Spec{Target: prefix + f})
		}
	}
	// Every probe field of the table but shard.*: that family describes the
	// execution plan and differs by shard count by design. The link fields
	// straddle the shard cut: delivered bytes are written on the receiving
	// side of a link, the rest on the sending side.
	add("links.*.", scenario.ProbeFieldNames(probe.TargetLinks))
	add("hosts.*.", scenario.ProbeFieldNames(probe.TargetHosts))
	for i := range spec.Links {
		add("link["+strconv.Itoa(i)+"].", scenario.ProbeFieldNames(probe.TargetLink))
	}
	cms := slices.Clone(spec.CMHosts)
	for _, w := range spec.Workloads {
		if w.CC == scenario.CCCM || w.Kind == scenario.KindUDPRate || w.Kind == scenario.KindUDPALF {
			cms = append(cms, w.From)
		}
	}
	slices.Sort(cms)
	for _, h := range slices.Compact(cms) {
		add("cm["+h+"].", scenario.ProbeFieldNames(probe.TargetCM))
	}
	spec.SnapshotEvery = probe.DefaultInterval
	spec.TraceDepth = 256
	return spec
}

// covering is the -short (and race) subset: one class per scenario, seeds
// rotating, each taking the mode pair its scenario admits that the subset has
// used least. Every scenario and shard count runs, and the test checks that
// every legal mode pair does.
func covering(all []class) []class {
	var out []class
	used := map[string]int{}
	for i := 0; i < len(all); {
		j, pick := i, -1
		for ; j < len(all) && all[j].name == all[i].name; j++ {
			if all[j].seed == int64(len(out)%3+1) && (pick < 0 || used[pair(all[j])] < used[pair(all[pick])]) {
				pick = j
			}
		}
		used[pair(all[pick])]++
		out = append(out, all[pick])
		i = j
	}
	return out
}

func pair(c class) string { return c.routing + "/" + c.sync }

// cell is one run: a class's spec at one shard count on one executor, with
// the faults checker's verdict on it, the digest of its Perf-stripped JSON
// Result and whether the profiler attributed its events.
type cell struct {
	class, exec int
	spec        scenario.Spec
	res         *scenario.Result
	err         string
	vs          []faults.Violation
	digest      string
	profiled    bool
}

func (x *cell) label(c class) string {
	return fmt.Sprintf("%s shards=%d runner=%d", c.key(), x.spec.Shards, x.exec)
}

// run is the matrix as run: the classes of the table (all of them, or the
// covering subset under -short and -race) and their cells, grouped by class.
type run struct {
	all, classes []class
	cells        [][]*cell
}

var (
	matrixOnce sync.Once
	matrixRun  run
	matrixErr  error
)

// runMatrix runs the matrix once per test binary, for whichever test asks
// first; every test below reads its own property off the same cells.
func runMatrix(t *testing.T) *run {
	t.Helper()
	matrixOnce.Do(func() { matrixErr = matrixRun.execute() })
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return &matrixRun
}

// execute builds the table and runs every class once at each shard count,
// its cells dealt round the executors so every class meets both runner
// widths. The batches run at once.
func (r *run) execute() error {
	all, err := matrix()
	if err != nil {
		return err
	}
	r.all, r.classes = all, all
	if testing.Short() || race.Enabled {
		r.classes = covering(all)
	}
	var cells []cell
	batches := make([][]int, len(executors))
	for ci, c := range r.classes {
		for j, k := range shardCounts {
			e := (ci + j) % len(executors)
			batches[e] = append(batches[e], len(cells))
			cells = append(cells, cell{class: ci, exec: executors[e], spec: c.spec})
			cells[len(cells)-1].spec.Shards = k
		}
	}
	var wg sync.WaitGroup
	for e, batch := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if executors[e] == 0 {
				for _, i := range batch {
					runDirect(&cells[i])
				}
				return
			}
			specs := make([]scenario.Spec, len(batch))
			for k, i := range batch {
				specs[k] = cells[i].spec
			}
			for k, o := range (scenario.Runner{Parallel: executors[e]}).RunAll(specs) {
				x := &cells[batch[k]]
				if x.res, x.err = o.Result, o.Err; x.res != nil {
					x.vs = faults.Check(x.res)
				}
			}
		}()
	}
	wg.Wait()

	r.cells = make([][]*cell, len(r.classes))
	for i := range cells {
		x := &cells[i]
		if x.res != nil {
			if x.digest, err = digest(x.res); err != nil {
				return err
			}
		}
		r.cells[x.class] = append(r.cells[x.class], x)
	}
	return nil
}

// digest is the hex SHA-256 of res's JSON encoding with Perf, the execution
// telemetry that differs per run by design, stripped.
func digest(res *scenario.Result) (string, error) {
	stripped := *res
	stripped.Perf = nil
	js, err := json.Marshal(&stripped)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), nil
}

// agree fails t unless, for each value in want, the class has a cell whose
// key is that value, and all those cells ran and gave the same bytes.
func agree(t *testing.T, c class, cells []*cell, key func(*cell) int, want ...int) {
	t.Helper()
	first := ""
	for _, w := range want {
		i := slices.IndexFunc(cells, func(x *cell) bool { return key(x) == w })
		switch {
		case i < 0:
			t.Errorf("%s: no cell at %d", c.key(), w)
		case cells[i].err != "":
			t.Errorf("%s: %s", cells[i].label(c), cells[i].err)
		case first == "":
			first = cells[i].digest
		case cells[i].digest != first:
			t.Errorf("%s: Result differs from the class's first cell", cells[i].label(c))
		}
	}
}

func shards(x *cell) int   { return x.spec.Shards }
func executor(x *cell) int { return x.exec }

// TestDeterminismMatrix is the table of the determinism contract, generated
// from the registry: every class runs once at each shard count, and every
// cell must run and pass the faults checker (the direct cells at every
// snapshot too). Under -short and -race the covering subset must still run
// every legal mode pair. The tests after it read the contract's properties
// off the same cells.
func TestDeterminismMatrix(t *testing.T) {
	r := runMatrix(t)
	used := map[string]bool{}
	for _, c := range r.classes {
		used[pair(c)] = true
	}
	for _, c := range r.all {
		if !used[pair(c)] {
			t.Errorf("the covering subset never runs mode pair %s", pair(c))
		}
	}
	forgiven := map[string]bool{}
	for ci, c := range r.classes {
		for _, x := range r.cells[ci] {
			if x.err != "" {
				t.Errorf("%s: %s", x.label(c), x.err)
			}
			for _, v := range x.vs {
				if v.Rule == knownViolations[c.key()] {
					forgiven[c.key()] = true
				} else {
					t.Errorf("%s: %s", x.label(c), v)
				}
			}
		}
	}
	ran := map[string]bool{}
	for _, c := range r.classes {
		ran[c.key()] = true
	}
	for key, rule := range knownViolations {
		if ran[key] && !forgiven[key] {
			t.Errorf("%s no longer breaks %s: delete its knownViolations entry", key, rule)
		}
	}
}

// TestShardedRunsAreByteIdentical is the sharded-execution contract: in every
// class the 1-, 2- and 4-shard cells give the same Perf-stripped JSON
// Result, with probes, snapshots and the flight recorder armed, and the
// direct cells show the profiler attributed their events without perturbing
// them.
func TestShardedRunsAreByteIdentical(t *testing.T) {
	r := runMatrix(t)
	for ci, c := range r.classes {
		agree(t, c, r.cells[ci], shards, shardCounts...)
		for _, x := range r.cells[ci] {
			if x.exec == 0 && x.err == "" && !x.profiled {
				t.Errorf("%s: profiled run produced no Perf attribution", x.label(c))
			}
		}
	}
}

// TestSerialAndParallelRunsAreByteIdentical is the batch-runner contract:
// each simulation owns its scheduler and seeded random sources, so in every
// class the cell run by Runner{Parallel: 1} and the one run by
// Runner{Parallel: 4}, among other scenarios' cells on shared workers, give
// the same bytes.
func TestSerialAndParallelRunsAreByteIdentical(t *testing.T) {
	r := runMatrix(t)
	for ci, c := range r.classes {
		agree(t, c, r.cells[ci], executor, 1, 4)
	}
}

// TestDynamicsDeterminismSerialVsParallel pins the batch-runner contract with
// an event timeline active: the dynamics scenarios (an outage, bursty loss
// with a scheduled fade, time-zero asymmetry) declare events, and their
// cells, run past every event, agree between the two runner widths.
func TestDynamicsDeterminismSerialVsParallel(t *testing.T) {
	r := runMatrix(t)
	for _, name := range []string{"flaky-dumbbell", "wireless", "asymmetric"} {
		n := 0
		for ci, c := range r.classes {
			if c.name != name {
				continue
			}
			n++
			if len(c.spec.Events) == 0 {
				t.Errorf("%s: dynamics scenario has no events", c.key())
			}
			agree(t, c, r.cells[ci], executor, 1, 4)
		}
		if n == 0 {
			t.Errorf("%s: no class in the matrix", name)
		}
	}
}

// TestGeneratedEventsShardedByteIdentical pins the sharded contract for a
// timeline that comes from seeded generators (churn's Poisson flaps and CM
// restarts): every class whose spec has generators agrees across shard
// counts, and the matrix has at least one.
func TestGeneratedEventsShardedByteIdentical(t *testing.T) {
	r := runMatrix(t)
	n := 0
	for ci, c := range r.classes {
		if len(c.spec.Generators) > 0 {
			n++
			agree(t, c, r.cells[ci], shards, shardCounts...)
		}
	}
	if n == 0 {
		t.Fatal("no class in the matrix has generated events")
	}
}

// TestShardedRepeatedRunsIdentical pins plain determinism of the sharded
// path itself: the grid's 4-shard cell, run again in the same process,
// gives the same bytes.
func TestShardedRepeatedRunsIdentical(t *testing.T) {
	r := runMatrix(t)
	for ci, c := range r.classes {
		if c.name != "grid" {
			continue
		}
		x := r.cells[ci][slices.IndexFunc(r.cells[ci], func(x *cell) bool { return x.spec.Shards == 4 })]
		if x.err != "" {
			t.Fatalf("%s: %s", x.label(c), x.err)
		}
		res, err := scenario.Run(x.spec)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := digest(res); err != nil || d != x.digest {
			t.Fatalf("%s: a second run differs (digest %s, %v)", x.label(c), d, err)
		}
		return
	}
	t.Fatal("no grid class in the matrix")
}

// TestDigestLedger pins the outcome of every class: its digest must equal
// its testdata/digests.json entry. A change that moves a digest regenerates
// the file (go test ./internal/scenario -run TestDigestLedger -update) and
// says why.
func TestDigestLedger(t *testing.T) {
	if *update && (testing.Short() || race.Enabled) {
		t.Fatal("-update needs the full matrix: run without -short and -race")
	}
	r := runMatrix(t)
	got := map[string]string{}
	for ci, c := range r.classes {
		for _, x := range r.cells[ci] {
			if x.err == "" {
				got[c.key()] = x.digest
				break
			}
		}
	}
	checkLedger(t, got, len(r.classes) == len(r.all))
}

// runDirect is the direct executor: Build, the per-kind profiler armed (it
// must not perturb the run either), Start, RunToEnd and Finish, checking the
// snapshots the batch runner discards.
func runDirect(x *cell) {
	sim, err := scenario.Build(x.spec)
	if err == nil {
		sim.EnableProfiling()
		err = sim.Start()
	}
	if err != nil {
		x.err = err.Error()
		return
	}
	sim.RunToEnd()
	x.res = sim.Finish()
	x.profiled = x.res.Perf != nil && x.res.Perf.Events > 0 && len(x.res.Perf.Kinds) > 0
	x.vs, _ = faults.CheckSnapshots(sim.Snapshots(), x.res)
}

// checkLedger compares the class digests with testdata/digests.json, or
// rewrites the file under -update. A full run also fails on a ledger entry
// no class produced.
func checkLedger(t *testing.T, got map[string]string, full bool) {
	t.Helper()
	path := filepath.Join("testdata", "digests.json")
	if *update {
		out, _ := json.MarshalIndent(got, "", "  ") // a map of strings always encodes
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want map[string]string
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Fatal(err)
	}
	for key, d := range got {
		if want[key] != d {
			t.Errorf("%s: digest %s, ledger has %q", key, d, want[key])
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok && full {
			t.Errorf("%s: in the ledger but no longer run", key)
		}
	}
}
