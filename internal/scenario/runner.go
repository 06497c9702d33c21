package scenario

import (
	"runtime"
	"sync"
)

// RunOutcome pairs a scenario's result with its error; exactly one of the
// two is set.
type RunOutcome struct {
	Result *Result `json:"result,omitempty"`
	Err    string  `json:"error,omitempty"`
}

// Runner executes batches of scenarios across a worker pool. Each simulation
// is fully self-contained (own scheduler, own seeded random sources, no
// shared mutable state), so fanning a batch across workers is safe and the
// outcomes are byte-identical to a serial run — only wall-clock time changes.
type Runner struct {
	// Parallel is the worker count; <= 0 uses GOMAXPROCS.
	Parallel int
}

// RunAll executes every spec and returns the outcomes in input order.
func (r Runner) RunAll(specs []Spec) []RunOutcome {
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	out := make([]RunOutcome, len(specs))
	if len(specs) == 0 {
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := Run(specs[i])
				if err != nil {
					out[i] = RunOutcome{Err: err.Error()}
				} else {
					out[i] = RunOutcome{Result: res}
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
