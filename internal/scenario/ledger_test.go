package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/race"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.json from this tree")

// ledgerDuration is the virtual time every registry scenario runs for in the
// digest ledger: long enough for every scenario to carry traffic, short
// enough to run the whole matrix in a few seconds.
const ledgerDuration = 2 * time.Second

// TestDigestLedger pins the outcome of every registry scenario: for seeds
// 1-3, serial and on two shards, the SHA-256 of the Perf-stripped JSON
// Result must equal the committed testdata/digests.json entry, and where the
// two-shard build really shards its digest must equal the serial one. A
// change that moves a digest moves the file in the same commit (regenerate
// with go test ./internal/scenario -run TestDigestLedger -update) and says
// why.
func TestDigestLedger(t *testing.T) {
	// The race detector slows the matrix ninefold; one seed still drives
	// every scenario through both shard counts.
	seeds := int64(3)
	if race.Enabled {
		seeds = 1
	}
	got := map[string]string{}
	shardedRuns := 0
	for _, name := range List() {
		for seed := int64(1); seed <= seeds; seed++ {
			var serial string
			for _, shards := range []int{0, 2} {
				spec, err := Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Duration = ledgerDuration
				spec.Seed = seed
				spec.Shards = shards
				digest, sharded := ledgerDigest(t, spec)
				got[fmt.Sprintf("%s seed=%d shards=%d", name, seed, shards)] = digest
				switch {
				case shards == 0:
					serial = digest
				case sharded:
					shardedRuns++
					if digest != serial {
						t.Errorf("%s seed %d: 2-shard digest %s differs from serial %s", name, seed, digest, serial)
					}
				}
			}
		}
	}
	t.Logf("%d of %d two-shard runs sharded", shardedRuns, len(got)/2)
	path := filepath.Join("testdata", "digests.json")
	if *updateDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, d := range got {
		if want[key] != d {
			t.Errorf("%s: digest %s, ledger has %q", key, d, want[key])
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok && seeds == 3 {
			t.Errorf("%s: in the ledger but no longer run", key)
		}
	}
}

// ledgerDigest runs spec to its end and returns the hex SHA-256 of its
// Perf-stripped JSON Result, and whether the build ran on more than one
// shard.
func ledgerDigest(t *testing.T, spec Spec) (string, bool) {
	t.Helper()
	sim, err := Build(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	sim.RunToEnd()
	res := sim.Finish()
	res.Perf = nil
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:]), sim.Sharded()
}
