//go:build race

// Package race reports whether the race detector is compiled in. Under it
// sync.Pool deliberately drops a quarter of what is put back, so the tests
// that gate the pooled data path at zero allocations (or count whole-run
// mallocs against a per-packet budget) cannot hold and skip themselves.
package race

// Enabled is true when the binary was built with -race.
const Enabled = true
