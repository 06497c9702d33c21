package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// The phases of one repetition, each timed on its own from here (the
// simulator is not touched). Their names are the per-layer span metrics.
const (
	phaseBuild = iota
	phaseStart
	phaseRun
	phaseFinish
	phaseCheck
	phaseEncode
	numPhases
)

var phaseMetric = [numPhases]string{
	"scenario.build_s", "scenario.start_s", "scenario.run_s",
	"scenario.finish_s", "faults.check_s", "scenario.encode_s",
}

// epoch is the zero of every span timestamp.
var epoch = time.Now()

// interval is a wall-clock span in nanoseconds since epoch.
type interval struct{ start, end int64 }

func (iv interval) seconds() float64 { return float64(iv.end-iv.start) / 1e9 }

// phaseSpan is one timed call into the simulator.
type phaseSpan struct {
	phase int
	interval
}

// rep is what one repetition measured and produced. A repetition of a batch
// workload is the sum of its simulations, see runScenarios.
type rep struct {
	phases     [numPhases]float64 // seconds spent in each phase
	spans      []phaseSpan        // the timed calls behind phases, in order
	readsS     float64            // seconds in readMem between the phases
	simSeconds float64
	results    []*scenario.Result
	perf       []*scenario.Perf // traced twins: the Perf blocks stripped from results
	timeline   *probe.Timeline  // traced sharded twins
	shards     int
	lookahead  time.Duration

	mallocs, bytes, buildMallocs uint64
	gcCycles                     uint32
	gcPauseNs                    uint64
	heapLive                     uint64 // untraced reps only

	violations int
	digest     string
	pktHops    int64  // packets sent over all links of all results
	completed  []bool // flow by flow across the results: did it finish
}

// whole is the repetition from the start of its first timed call to the end
// of its last.
func (r *rep) whole() interval {
	return interval{r.spans[0].start, r.spans[len(r.spans)-1].end}
}

func (r *rep) wall() float64 { return r.whole().seconds() }

// timed runs fn and returns the interval it took.
func timed(fn func()) interval {
	start := time.Since(epoch).Nanoseconds()
	fn()
	return interval{start, time.Since(epoch).Nanoseconds()}
}

// time runs fn and books the time it took to phase.
func (r *rep) time(phase int, fn func()) {
	iv := timed(fn)
	r.phases[phase] += iv.seconds()
	r.spans = append(r.spans, phaseSpan{phase, iv})
}

// readMem reads the memory statistics between two phases. The read stops the
// world, which on a busy host can take milliseconds, so its time is kept: it
// is the one thing a repetition does that no phase covers.
func (r *rep) readMem(m *runtime.MemStats) {
	r.readsS += timed(func() { runtime.ReadMemStats(m) }).seconds()
}

// job is one workload with its inputs generated from the seed: the campaign,
// or the specs of the simulations one repetition runs (one, or a batch).
type job struct {
	w     *workload
	specs []scenario.Spec
	camp  sweep.Campaign
	scale float64
}

func newJob(w *workload, seed int64, scale float64) (*job, error) {
	j := &job{w: w, scale: scale}
	var err error
	switch {
	case w.campaign != nil:
		j.camp, err = w.campaign(seed, scale)
	case w.batch > 1:
		for i := 0; i < scaledCount(w.batch, scale, 2) && err == nil; i++ {
			var spec scenario.Spec
			spec, err = w.spec(subSeed(seed, i), scale)
			j.specs = append(j.specs, spec)
		}
	default:
		j.specs = make([]scenario.Spec, 1)
		j.specs[0], err = w.spec(seed, scale)
	}
	return j, err
}

// blockK scales a per-block call count down with the test-only -scale.
func (j *job) blockK(k int) int { return scaledCount(k, j.scale, 1) }

// run executes one repetition: Build, Start, RunToEnd, Finish, faults.Check
// and JSON encoding, each timed separately, for the campaign or for the job's
// simulations. A traced repetition arms the simulator's own observation-only
// instruments; everything else is the same.
func (j *job) run(traced bool) (*rep, error) {
	// Two collections give every untraced repetition the same heap to start
	// from; the second empties the packet pool's victim cache, which otherwise
	// holds whatever the previous simulation freed last. Traced twins run under
	// the CPU profile, where a forced collection would be booked as GC work
	// the simulation did not cause.
	if !traced {
		runtime.GC()
		runtime.GC()
	}
	var r *rep
	var err error
	var keep any
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Traced twins check and encode once, as a cmsim user does, so the CPU
	// profile keeps a real run's proportions.
	k := 1
	if !traced {
		k = j.blockK(j.w.encodeK)
	}
	sims := 1
	if j.w.campaign != nil {
		r, keep, err = j.runCampaign(k, &m0)
	} else {
		r, keep, err = runScenarios(j.specs, traced, k, &m0)
		sims = len(j.specs)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		// Retained size of one simulation: everything the repetition's
		// simulations hold is still referenced through keep while the collector
		// runs, and what the heap held before them (the benchmark's own
		// records, which grow with every repetition) is taken off.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		r.heapLive = (m.HeapAlloc - m0.HeapAlloc) / uint64(sims)
	}
	runtime.KeepAlive(keep)
	for _, res := range r.results {
		for _, l := range res.Links {
			r.pktHops += int64(l.SentPackets)
		}
		for _, f := range res.Flows {
			r.completed = append(r.completed, f.Completed)
		}
	}
	if r.pktHops == 0 {
		return nil, errors.New("no packet crossed any link")
	}
	if !traced {
		// A kept Result would be counted in every later repetition's
		// heap_live_mb.
		r.results = nil
	}
	return r, nil
}

// memSince books the allocation and collector work since m0 to the
// repetition; it is called right after Finish, so Build..Finish is covered and
// the checking and encoding are not.
func (r *rep) memSince(m0 *runtime.MemStats) {
	var m runtime.MemStats
	r.readMem(&m)
	r.mallocs = m.Mallocs - m0.Mallocs
	r.bytes = m.TotalAlloc - m0.TotalAlloc
	r.gcCycles = m.NumGC - m0.NumGC
	r.gcPauseNs = m.PauseTotalNs - m0.PauseTotalNs
}

// runScenarios runs the repetition's simulations one after the other (a
// batch; otherwise there is one), each through Build, Start, RunToEnd and
// Finish, then checks and encodes all their results K times over. Times and
// counts add up over the simulations.
func runScenarios(specs []scenario.Spec, traced bool, k int, m0 *runtime.MemStats) (*rep, any, error) {
	r := &rep{}
	sims := make([]*scenario.Sim, 0, len(specs))
	mb0 := *m0
	for i, spec := range specs {
		if i > 0 {
			r.readMem(&mb0)
		}
		var sim *scenario.Sim
		var err error
		r.time(phaseBuild, func() { sim, err = scenario.Build(spec) })
		if err != nil {
			return nil, nil, err
		}
		if traced {
			sim.EnableProfiling()
			if sim.Sharded() {
				r.timeline = sim.EnableExecutionTimeline()
			}
		}
		r.shards, r.lookahead = sim.ShardCount(), sim.Lookahead()
		r.time(phaseStart, func() { err = sim.Start() })
		if err != nil {
			return nil, nil, err
		}
		var mb runtime.MemStats
		r.readMem(&mb)
		r.buildMallocs += mb.Mallocs - mb0.Mallocs
		r.time(phaseRun, sim.RunToEnd)
		var res *scenario.Result
		r.time(phaseFinish, func() { res = sim.Finish() })
		// Perf describes the execution, not the simulation: the digest and
		// the encode timing are taken without it, armed or not.
		r.perf, res.Perf = append(r.perf, res.Perf), nil
		r.results = append(r.results, res)
		r.simSeconds += spec.Duration.Seconds()
		sims = append(sims, sim)
	}
	r.memSince(m0)

	r.time(phaseCheck, func() {
		for i := 0; i < k; i++ {
			r.violations = 0
			for _, res := range r.results {
				r.violations += len(faults.Check(res))
			}
		}
	})
	docs := make([][]byte, len(r.results))
	var err error
	r.time(phaseEncode, func() {
		for i := 0; i < k; i++ {
			for n, res := range r.results {
				var e error
				if docs[n], e = json.Marshal(res); e != nil {
					err = e
				}
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	h := sha256.New()
	for _, doc := range docs {
		h.Write(doc)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, sims, nil
}

// runCampaign executes the whole sweep the way `cmsim -campaign` does. The
// sweep package has no hook to arm per-simulation instruments, so the traced
// twin of a campaign is the same code under the CPU profile and the spans.
func (j *job) runCampaign(k int, m0 *runtime.MemStats) (*rep, any, error) {
	r := &rep{}
	var points []sweep.Point
	var err error
	r.time(phaseBuild, func() { points, err = j.camp.Expand() })
	if err != nil {
		return nil, nil, err
	}
	for _, pt := range points {
		for _, spec := range pt.Specs {
			r.simSeconds += spec.Duration.Seconds()
		}
	}
	r.time(phaseStart, func() {})
	var mb runtime.MemStats
	r.readMem(&mb)
	r.buildMallocs = mb.Mallocs - m0.Mallocs
	var cr *sweep.CampaignResult
	r.time(phaseRun, func() { cr, err = j.camp.Run(scenario.Runner{Parallel: 2}) })
	if err != nil {
		return nil, nil, err
	}
	r.time(phaseFinish, func() {
		for _, pr := range cr.Points {
			if pr.Failed > 0 && err == nil {
				err = fmt.Errorf("point %d: %d replicates failed: %v", pr.Index, pr.Failed, pr.Errors)
			}
			r.results = append(r.results, pr.Results...)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	r.memSince(m0)
	r.time(phaseCheck, func() {
		for i := 0; i < k; i++ {
			r.violations = len(faults.CheckCampaign(cr))
		}
	})
	var csv string
	var doc []byte
	r.time(phaseEncode, func() {
		for i := 0; i < k; i++ {
			csv = cr.CSV()
			doc, err = cr.JSON()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// The aggregates are a function of the raw results, so the digest covers
	// both: every replicate's Result, then what the emitters made of them.
	h := sha256.New()
	for _, res := range r.results {
		data, err := json.Marshal(res)
		if err != nil {
			return nil, nil, err
		}
		h.Write(data)
	}
	h.Write([]byte(csv))
	h.Write(doc)
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, cr, nil
}

// setupBlock times K back-to-back set-ups and returns the mean of one. For a
// simulation a set-up is Build+Start; for a batch it is Build+Start of each of
// its simulations; for the campaign it is the expansion plus Build+Start of
// each point's first replicate.
func (j *job) setupBlock() (float64, error) {
	k := j.blockK(j.w.setupK)
	var err error
	runtime.GC() // every block starts from the same heap
	iv := timed(func() {
		for i := 0; i < k && err == nil; i++ {
			err = j.setupOnce()
		}
	})
	return iv.seconds() / float64(k), err
}

func (j *job) setupOnce() error {
	specs := j.specs
	if j.w.campaign != nil {
		points, err := j.camp.Expand()
		if err != nil {
			return err
		}
		specs = specs[:0]
		for _, pt := range points {
			specs = append(specs, pt.Specs[0])
		}
	}
	for _, spec := range specs {
		sim, err := scenario.Build(spec)
		if err != nil {
			return err
		}
		if err := sim.Start(); err != nil {
			return err
		}
	}
	return nil
}

// checks counts the output checks attempted and failed for one workload.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// verify applies the per-repetition checks to r against the workload's
// reference repetition (the first one; nil while r is it).
func (c *checks) verify(what string, r *rep, err error, ref *rep) {
	c.check(err == nil, "%s: %v", what, err)
	if err != nil {
		return
	}
	c.check(r.violations == 0, "%s: %d invariant violations", what, r.violations)
	if ref == nil {
		return
	}
	missing := 0
	for i, done := range ref.completed {
		if done && (i >= len(r.completed) || !r.completed[i]) {
			missing++
		}
	}
	c.check(missing == 0, "%s: %d flows that completed in repetition 1 did not", what, missing)
	c.check(r.digest == ref.digest, "%s: digest %.12s differs from repetition 1's %.12s", what, r.digest, ref.digest)
}
